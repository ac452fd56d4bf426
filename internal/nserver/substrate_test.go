package nserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The tests in this file pin the one read and write substrate: every
// connection reads on its own goroutine, which leases its read buffer
// only once the socket is readable, and a reply the socket cannot take
// parks and is finished by the write pump on the netpoller.

// skipWithoutParking skips a test of the descriptor-level sink where the
// runtime has none: off Linux every connection writes blocking.
func skipWithoutParking(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("descriptor-level I/O is Linux-only")
	}
}

// inuseBytes is the heap and stack memory in use after a full collection.
func inuseBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse + ms.StackInuse
}

// TestIdleConnHoldsNoReadLease: an idle keep-alive connection costs its
// reader goroutine and its Conn, not a read buffer. A 32 KiB chunk leased
// before blocking in Read would cost each one about 35 KB.
func TestIdleConnHoldsNoReadLease(t *testing.T) {
	skipWithoutParking(t)
	const conns = 200
	s, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	before := inuseBytes()
	clients := make([]net.Conn, conns)
	var reply [64]byte
	for i := range clients {
		clients[i] = dial(t, addr)
		if _, err := clients[i].Write([]byte("hi\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := clients[i].Read(reply[:]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every conn to attach", func() bool { return s.ActiveConns() == conns })
	grown := int64(inuseBytes()) - int64(before)
	if per := grown / conns; per >= 8<<10 {
		t.Fatalf("%d B in use per idle conn, want < 8 KiB: a parked reader holds a read lease", per)
	}
	t.Logf("%d B in use per idle conn (server and client sides)", grown/conns)
}

// TestSlowReaderPinsNoWorker: with a single Event Processor worker, a
// reader that stops reading a large reply must not hold that worker.
// The reply parks, the write pump finishes it, and another connection's
// queued request is answered at once.
func TestSlowReaderPinsNoWorker(t *testing.T) {
	skipWithoutParking(t)
	o := testOptions()
	o.EventThreads = 1
	app := AppFuncs{Request: func(c *Conn, req any) {
		if req == "big" {
			_ = c.Reply(strings.Repeat("a", 6<<20))
			return
		}
		_ = c.Reply("echo: " + req.(string))
	}}
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	slow := slowClient(t, addr)
	if _, err := slow.Write([]byte("big\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the big reply to park", func() bool { return s.ParkedWrites() == 1 })
	c := dial(t, addr)
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := c.Write([]byte("hi\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("queued request behind a slow reader: %v (the worker is pinned)", err)
	}
	if line != "echo: hi\n" {
		t.Fatalf("got %q", line)
	}
}

// TestReadTimeoutClosesSilentConn: the read deadline's silence bound
// bounds the wait for readiness, so a connection that never sends is
// closed within ReadTimeout.
func TestReadTimeoutClosesSilentConn(t *testing.T) {
	o := testOptions()
	o.ReadTimeout = 50 * time.Millisecond
	closed := make(chan error, 1)
	app := AppFuncs{Close: func(c *Conn, err error) { closed <- err }}
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	c := dial(t, addr)
	select {
	case err := <-closed:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("silent conn closed with %v, want the read deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent conn never closed")
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after the deadline close")
	}
	waitFor(t, "conn table to drain", func() bool { return s.ActiveConns() == 0 })
}

// TestSlowlorisReaped: a peer that trickles one byte per few
// milliseconds never lets one read wait out ReadTimeout, so only the read
// deadline's request-assembly bound (reqStart) can catch it.
func TestSlowlorisReaped(t *testing.T) {
	o := testOptions()
	o.ReadTimeout = 60 * time.Millisecond
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := c.Write([]byte("x")); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	waitFor(t, "conn to attach", func() bool { return s.ActiveConns() == 1 })
	waitFor(t, "slowloris conn to be reaped", func() bool { return s.ActiveConns() == 0 })
}

// TestWrappedTransportServes: a transport that hides its descriptor
// reads through its own blocking Read and writes through the blocking
// sink, request by request and pipelined.
func TestWrappedTransportServes(t *testing.T) {
	conns := make(chan *Conn, 1)
	app := AppFuncs{
		Connect: func(c *Conn) { conns <- c },
		Request: func(c *Conn, req any) { _ = c.Reply("echo: " + req.(string)) },
	}
	s, addr := startServerOn(t, Config{Options: testOptions(), App: app, Codec: lineCodec{}}, true)
	c := dial(t, addr)
	r := bufio.NewReader(c)
	var burst strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&burst, "wrapped %d\n", i)
	}
	if _, err := c.Write([]byte(burst.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("echo: wrapped %d\n", i); line != want {
			t.Fatalf("reply %d: got %q want %q", i, line, want)
		}
	}
	if conn := <-conns; s.ActiveConns() != 1 || conn.raw != nil {
		t.Fatalf("ActiveConns = %d, raw = %v: want one conn on the portable calls", s.ActiveConns(), conn.raw != nil)
	}
}

// TestNonblockWritev pins the non-blocking sink's gathered write: the
// segments land as one contiguous stream with empty ones skipped, an
// all-empty vector is a no-op, and a full socket surfaces as again
// (possibly after partial counts), never as a block or an error.
func TestNonblockWritev(t *testing.T) {
	skipWithoutParking(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	peer := dial(t, ln.Addr().String())
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	defer server.Close()
	raw := rawConnOf(server)

	n, again, err := nonblockWritev(raw, [][]byte{[]byte("head,"), nil, []byte("body")})
	if err != nil || again || n != 9 {
		t.Fatalf("writev: n=%d again=%v err=%v, want 9 false nil", n, again, err)
	}
	got := make([]byte, 9)
	if _, err := io.ReadFull(peer, got); err != nil || string(got) != "head,body" {
		t.Fatalf("peer read %q (%v), want \"head,body\"", got, err)
	}
	if n, again, err = nonblockWritev(raw, [][]byte{nil, {}}); n != 0 || again || err != nil {
		t.Fatalf("empty writev: n=%d again=%v err=%v, want 0 false nil", n, again, err)
	}
	chunk := make([]byte, 64<<10)
	sent := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, again, err = nonblockWritev(raw, [][]byte{chunk[:16], chunk[16:]})
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		if again {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("socket never filled")
		}
	}
	if sent == 0 {
		t.Fatal("no bytes accepted before EAGAIN")
	}
}
