package gen

import (
	"bufio"
	"fmt"
	"net"
	"os"
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

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	start := time.Now()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("idle connection still open after %v (read: %v)", time.Since(start), err)
	}
	if d := time.Since(start); d < idleTimeout || d > 500*time.Millisecond {
		t.Errorf("idle connection closed after %v, want at the %v idle bound", d, idleTimeout)
	}
}
