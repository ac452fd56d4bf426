package nserver

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
)

// The tests in this file pin the reader goroutine's lifetime: it outlives
// its connection, serves the next one attach hands it, and exits after
// readerIdleWait idle or at Shutdown.

// echoOnce runs one request/reply exchange on a fresh connection and
// closes it.
func echoOnce(t *testing.T, addr string, i int) {
	t.Helper()
	c := dial(t, addr)
	fmt.Fprintf(c, "q%d\n", i)
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("echo: q%d\n", i); line != want {
		t.Fatalf("conn %d got %q, want %q", i, line, want)
	}
	c.Close()
}

// waitGoroutines waits up to within for the goroutine count to fall to
// at most n.
func waitGoroutines(t *testing.T, n int, within time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want at most %d:\n%s",
				what, runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReaderReusedAcrossSequentialConns: connections that arrive one
// after another are read by the same goroutine. A reader that has not
// reached its idle wait when the next connection attaches costs one more
// start, hence at most 2 (one per connection without reuse: 50).
func TestReaderReusedAcrossSequentialConns(t *testing.T) {
	o := testOptions()
	o.Shards = 1
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	const conns = 50
	for i := 0; i < conns; i++ {
		echoOnce(t, addr, i)
		waitFor(t, "conn to detach", func() bool { return s.ActiveConns() == 0 })
	}
	if n := s.readerStarts.Load(); n > 2 {
		t.Fatalf("%d sequential connections started %d reader goroutines, want at most 2", conns, n)
	}
}

// idleReaders opens conns concurrent connections, runs one exchange on
// each and closes them all, leaving conns reader goroutines idle.
func idleReaders(t *testing.T, s *Server, addr string, conns int) {
	t.Helper()
	clients := make([]net.Conn, conns)
	for i := range clients {
		clients[i] = dial(t, addr)
		fmt.Fprintf(clients[i], "q%d\n", i)
	}
	for i, c := range clients {
		if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	for _, c := range clients {
		c.Close()
	}
	waitFor(t, "conns to detach", func() bool { return s.ActiveConns() == 0 })
}

// TestIdleReadersExit: readers left idle by closed connections linger
// for the next connection, then exit once readerIdleWait passes without
// one.
func TestIdleReadersExit(t *testing.T) {
	s, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	baseline := runtime.NumGoroutine()
	idleReaders(t, s, addr, 8)
	start := time.Now()
	waitGoroutines(t, baseline, readerIdleWait+5*time.Second, "after the idle wait")
	if waited := time.Since(start); waited < readerIdleWait/2 {
		t.Fatalf("idle readers gone after %v, well before the %v idle wait", waited, readerIdleWait)
	}
}

// TestShutdownEndsIdleReaders: Shutdown ends idle readers at once, not
// after their idle wait.
func TestShutdownEndsIdleReaders(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	idleReaders(t, s, addr, 8)
	s.Shutdown()
	waitGoroutines(t, baseline, readerIdleWait/2, "after Shutdown")
}
