package gen

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// TestGeneratedReadDeadlineBoundsAssembly drives the generated reader's
// one read deadline with the COPS-HTTP options and a 60 ms ReadTimeout:
// a silent client is closed at the read deadline, and a client that
// trickles one byte per 10 ms, so that no read waits a whole ReadTimeout,
// is closed once its partial request's first byte is ReadTimeout old,
// not when it stops trickling.
func TestGeneratedReadDeadlineBoundsAssembly(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	const readTimeout = 60 * time.Millisecond
	o := options.COPSHTTP().WithLargeFiles(64<<10).WithHardening(readTimeout, 0, 0)
	addr := startGenerated(t, o, writeAppSrc, os.DevNull)

	// closedAfter dials, starts feed on the connection, and returns how
	// long after the dial the server closed it.
	closedAfter := func(feed func(net.Conn)) time.Duration {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		go feed(conn)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
			t.Fatalf("connection still open after %v (read: %v)", time.Since(start), err)
		}
		return time.Since(start)
	}

	if d := closedAfter(func(net.Conn) {}); d < readTimeout || d > 500*time.Millisecond {
		t.Errorf("silent connection closed after %v, want at the %v read deadline", d, readTimeout)
	}
	trickle := func(c net.Conn) {
		for i := 0; i < 250; i++ {
			if _, err := c.Write([]byte("x")); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if d := closedAfter(trickle); d > 500*time.Millisecond {
		t.Errorf("trickling client closed after %v, want within 500ms", d)
	}
}

// TestGeneratedIdleBound drives the generated O7 idle bound, which the
// same read deadline carries: an idle connection is closed once it has
// moved no byte for IdleTimeout, and one that keeps exchanging requests
// and replies is not.
func TestGeneratedIdleBound(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	const idleTimeout = 80 * time.Millisecond
	o := options.COPSHTTP().WithLargeFiles(64 << 10)
	o.ShutdownLongIdle = true
	o.IdleTimeout = idleTimeout
	addr := startGenerated(t, o, writeAppSrc, os.DevNull)

	active, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	r := bufio.NewReader(active)
	for i := 0; i < 10; i++ {
		active.SetReadDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(active, "ping %d\n", i)
		if line, err := r.ReadString('\n'); err != nil {
			t.Fatalf("active connection closed at exchange %d: %q (%v)", i, line, err)
		}
		time.Sleep(idleTimeout / 3)
	}

	// The server's idle clock starts when it accepts, which can come
	// before Dial returns here, so the bound is timed from before Dial.
	start := time.Now()
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("idle connection still open after %v (read: %v)", time.Since(start), err)
	}
	if d := time.Since(start); d < idleTimeout || d > 500*time.Millisecond {
		t.Errorf("idle connection closed after %v, want at the %v idle bound", d, idleTimeout)
	}
}

// clampedWriteAppSrc is writeAppSrc listening with a 64 KiB SO_SNDBUF,
// which accepted sockets inherit. With an autotuned send buffer (up to
// 4 MiB) the kernel wakes a blocked writer only once half of it has
// drained, so a slow reader's blocking write makes no visible progress
// for longer than a short idle bound, however steadily it reads.
var clampedWriteAppSrc = strings.NewReplacer(
	"\t\"fmt\"\n", "\t\"context\"\n\t\"fmt\"\n",
	"\t\"strings\"\n", "\t\"strings\"\n\t\"syscall\"\n",
	`ln, err := net.Listen("tcp", "127.0.0.1:0")`, `lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF, 64<<10)
		}); err != nil {
			return err
		}
		return serr
	}}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")`,
).Replace(writeAppSrc)

// TestGeneratedIdleBoundSparesDrainingReader drives the generated O7
// bound on the write side, with the COPS-HTTP options, no WriteTimeout
// and a 200 ms IdleTimeout. A client that takes an 8 MiB reply 32 KiB
// every 5 ms, for several IdleTimeouts, gets all of it: every blocking
// write moves at most writeFlushChunk bytes under its own deadline and
// stamps activity. A client that reads the first bytes and then stops
// is closed within about IdleTimeout plus 300 ms: the bytes it reads
// once it resumes end short of the reply. The server's send buffer is
// clamped (see clampedWriteAppSrc), as the runtime's own test clamps it
// (TestIdleBoundSparesDrainingReader).
func TestGeneratedIdleBoundSparesDrainingReader(t *testing.T) {
	if !strings.Contains(clampedWriteAppSrc, "SO_SNDBUF") {
		t.Fatal("writeAppSrc no longer has the listener clampedWriteAppSrc replaces")
	}
	drainGeneratedSteadily(t, clampedWriteAppSrc)
}

// TestGeneratedIdleBoundSparesUnclampedDrainingReader is the same pair of
// clients on writeAppSrc's plain listener, whose send buffer autotunes to
// megabytes: the woven TCP_NOTSENT_LOWAT (lowat_linux.go) wakes each
// blocked write as the peer drains, so the steady reader still counts as
// active.
func TestGeneratedIdleBoundSparesUnclampedDrainingReader(t *testing.T) {
	drainGeneratedSteadily(t, writeAppSrc)
}

// drainGeneratedSteadily runs the two clients of the steady-reader tests
// against a framework generated with O7 and appSrc as its main package.
func drainGeneratedSteadily(t *testing.T, appSrc string) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	const idleTimeout = 200 * time.Millisecond
	const replyLen = 8 << 20 // "big" replies n bytes and a newline
	o := options.COPSHTTP().WithLargeFiles(64 << 10)
	o.ShutdownLongIdle = true
	o.IdleTimeout = idleTimeout
	addr := startGenerated(t, o, appSrc, os.DevNull)

	request := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(conn, "big %d\n", replyLen-1); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		return conn
	}
	buf := make([]byte, 32<<10)

	steady := request()
	got, start := 0, time.Now()
	for got < replyLen {
		n, err := steady.Read(buf)
		got += n
		if err != nil {
			t.Fatalf("steady reader cut off after %d of %d bytes (%v): %v", got, replyLen, time.Since(start), err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	stopped := request()
	if _, err := io.ReadFull(stopped, buf); err != nil {
		t.Fatal(err)
	}
	time.Sleep(idleTimeout + 300*time.Millisecond)
	rest, err := io.Copy(io.Discard, stopped)
	if err == nil && int(rest)+len(buf) >= replyLen {
		t.Fatalf("a reader that stopped for %v got the whole reply: not closed", idleTimeout+300*time.Millisecond)
	}
}
