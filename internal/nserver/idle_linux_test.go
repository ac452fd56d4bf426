package nserver

import (
	"bytes"
	"context"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/options"
)

// The tests in this file pin the O7 idle bound on the write side: a
// blocking write arms IdleTimeout when it is tighter than WriteTimeout.

// startClampedServer is startServer on a listener whose accepted sockets
// inherit a fixed 64 KiB send buffer. The kernel then holds little of a
// reply, so the server's writes keep pace with the peer's reads to the
// end, instead of the reply's tail waiting in a send buffer autotuned to
// megabytes, where no write of the server's moves it.
func startClampedServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF, 64<<10)
		}); err != nil {
			return err
		}
		return serr
	}}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s, ln.Addr().String()
}

// idleOptions turns O7 on with a 200 ms IdleTimeout and no WriteTimeout,
// so the idle bound is the only one a blocking write answers to.
func idleOptions() options.Options {
	o := testOptions()
	o.ShutdownLongIdle = true
	o.IdleTimeout = 200 * time.Millisecond
	o.Profiling = true
	return o
}

// TestIdleBoundSparesDrainingReader: with O7 on, a multi-MiB reply to a
// peer that reads it steadily, over several IdleTimeouts, is not reaped:
// each chunk the reply moves is activity.
func TestIdleBoundSparesDrainingReader(t *testing.T) {
	const bodyLen = 4 << 20
	s, addr := startClampedServer(t, Config{Options: idleOptions(), App: bigReplyApp(bodyLen), Codec: lineCodec{}})
	c := slowClient(t, addr)
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(30 * time.Second))
	got := make([]byte, 0, bodyLen+1)
	buf := make([]byte, 32<<10)
	start := time.Now()
	for len(got) < bodyLen+1 {
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("draining reader cut off after %d of %d bytes (%v): %v",
				len(got), bodyLen+1, time.Since(start), err)
		}
		got = append(got, buf[:n]...)
		time.Sleep(5 * time.Millisecond)
	}
	if got[bodyLen] != '\n' || !bytes.Equal(got[:bodyLen], bytes.Repeat([]byte("a"), bodyLen)) {
		t.Fatal("drained reply corrupted")
	}
	if n := s.Profile().Snapshot().IdleShutdowns; n != 0 || s.ActiveConns() != 1 {
		t.Fatalf("IdleShutdowns = %d, ActiveConns = %d after a %v drain: want 0 and 1",
			n, s.ActiveConns(), time.Since(start))
	}
}

// TestIdleBoundReapsParkedReply: with O7 on, a reply parked for a peer
// that never reads is torn down within two IdleTimeouts, with no error,
// and counted as an idle shutdown, although its reader waits on the pump
// instead of on a read.
func TestIdleBoundReapsParkedReply(t *testing.T) {
	const bodyLen = 6 << 20
	o := idleOptions()
	closed := make(chan error, 1)
	app := AppFuncs{
		Request: func(c *Conn, req any) { _ = c.Reply(strings.Repeat("a", bodyLen)) },
		Close:   func(c *Conn, err error) { closed <- err },
	}
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	c := slowClient(t, addr)
	start := time.Now()
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-closed:
		if elapsed := time.Since(start); err != nil || elapsed > 2*o.IdleTimeout {
			t.Fatalf("parked reply torn down after %v with %v, want within %v and no error",
				elapsed, err, 2*o.IdleTimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked reply never torn down")
	}
	if n := s.Profile().Snapshot().IdleShutdowns; n != 1 {
		t.Fatalf("IdleShutdowns = %d, want 1", n)
	}
	waitFor(t, "conn table to drain", func() bool { return s.ActiveConns() == 0 })
}
