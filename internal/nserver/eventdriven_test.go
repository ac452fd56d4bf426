package nserver

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/options"
	"repro/internal/reactor"
)

// edOptions is the test configuration with the kernel-event read path
// selected.
func edOptions() options.Options {
	o := testOptions()
	o.EventDriven = true
	return o
}

// opaqueConn hides the transport's raw descriptor, modelling faultnet and
// TLS-like decorators: it embeds the net.Conn interface, so it does not
// implement syscall.Conn and must fall back to the goroutine read path.
type opaqueConn struct{ net.Conn }

// opaqueListener wraps every accepted transport in an opaqueConn.
type opaqueListener struct{ net.Listener }

func (l opaqueListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return opaqueConn{Conn: c}, nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEventDrivenEchoRoundTrip(t *testing.T) {
	if !reactor.PollerSupported {
		t.Skip("no kernel poller on this platform")
	}
	s, addr := startServer(t, Config{Options: edOptions(), App: echoApp(), Codec: lineCodec{}})
	if !s.EventDriven() {
		t.Fatal("EventDriven() = false on a supported platform")
	}
	c := dial(t, addr)
	r := bufio.NewReader(c)
	waitFor(t, "connection to park", func() bool { return s.ParkedConns() == 1 })
	for i := 0; i < 50; i++ {
		fmt.Fprintf(c, "hello %d\n", i)
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("echo: hello %d\n", i); line != want {
			t.Fatalf("got %q want %q", line, want)
		}
	}
	// Pipelined burst: many requests land in one readiness event and the
	// drain must carve all of them out before re-arming.
	var burst strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&burst, "burst %d\n", i)
	}
	if _, err := c.Write([]byte(burst.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("echo: burst %d\n", i); line != want {
			t.Fatalf("burst reply %d: got %q want %q", i, line, want)
		}
	}
	c.Close()
	waitFor(t, "parked table to drain", func() bool { return s.ParkedConns() == 0 })
	waitFor(t, "conn table to drain", func() bool { return s.ActiveConns() == 0 })
}

// TestEventDrivenFastPathSeesParkedFromFirstEdge: a client that sends
// its request the moment it connects can have that first edge drained on
// the poller before the registration returns. The FastPath hook must
// already see Parked() there — it is what keeps the poller goroutine
// from making a filesystem call.
func TestEventDrivenFastPathSeesParkedFromFirstEdge(t *testing.T) {
	if !reactor.PollerSupported {
		t.Skip("no kernel poller on this platform")
	}
	var unparked atomic.Int32
	_, addr := startServer(t, Config{Options: edOptions(), App: echoApp(), Codec: lineCodec{},
		FastPath: func(c *Conn, req any) bool {
			if !c.Parked() {
				unparked.Add(1)
			}
			return false
		}})
	for i := 0; i < 200; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(c, "first\n")
		if line, err := bufio.NewReader(c).ReadString('\n'); err != nil || line != "echo: first\n" {
			t.Fatalf("conn %d: %q, %v", i, line, err)
		}
		c.Close()
	}
	if n := unparked.Load(); n != 0 {
		t.Fatalf("the FastPath hook saw an unparked connection on %d first requests", n)
	}
}

func TestEventDrivenLargePayloadCrossesChunks(t *testing.T) {
	if !reactor.PollerSupported {
		t.Skip("no kernel poller on this platform")
	}
	// One request far larger than readChunkSize forces the drain loop to
	// take several non-blocking reads (and usually several readiness
	// events) before the decoder sees the newline.
	s, addr := startServer(t, Config{Options: edOptions(), App: echoApp(), Codec: lineCodec{}})
	_ = s
	c := dial(t, addr)
	payload := strings.Repeat("x", 3*readChunkSize)
	if _, err := fmt.Fprintf(c, "%s\n", payload); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReaderSize(c, 4*readChunkSize).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := "echo: " + payload + "\n"; line != want {
		t.Fatalf("large echo mismatch: got %d bytes, want %d", len(line), len(want))
	}
}

func TestEventDrivenWrappedConnFallsBack(t *testing.T) {
	if !reactor.PollerSupported {
		t.Skip("no kernel poller on this platform")
	}
	srv, err := New(Config{Options: edOptions(), App: echoApp(), Codec: lineCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(opaqueListener{Listener: ln}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)

	c := dial(t, ln.Addr().String())
	r := bufio.NewReader(c)
	fmt.Fprint(c, "wrapped\n")
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "echo: wrapped\n" {
		t.Fatalf("got %q", line)
	}
	// The wrapped transport exposes no raw descriptor, so the connection
	// serves from the goroutine read path: live but never parked.
	if got := srv.ActiveConns(); got != 1 {
		t.Fatalf("ActiveConns = %d, want 1", got)
	}
	if got := srv.ParkedConns(); got != 0 {
		t.Fatalf("ParkedConns = %d, want 0 for a wrapped transport", got)
	}
}

func TestEventDrivenReadTimeoutReapsParkedConn(t *testing.T) {
	if !reactor.PollerSupported {
		t.Skip("no kernel poller on this platform")
	}
	o := edOptions()
	o.ReadTimeout = 50 * time.Millisecond
	o.Profiling = true
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	waitFor(t, "connection to park", func() bool { return s.ParkedConns() == 1 })
	// Send nothing: a parked socket performs no read for a deadline to
	// bound, so only the scavenger sweep can enforce the O7 budget.
	waitFor(t, "scavenger to reap the silent conn", func() bool {
		return s.ParkedConns() == 0 && s.ActiveConns() == 0
	})
	one := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(one); err == nil {
		t.Fatal("peer read succeeded after reap; expected EOF/RST")
	}
	if s.Profile().Snapshot().IdleShutdowns == 0 {
		t.Error("reap of a parked conn not counted as an idle/slow shutdown")
	}
}

func TestEventDrivenSlowlorisStillReaped(t *testing.T) {
	if !reactor.PollerSupported {
		t.Skip("no kernel poller on this platform")
	}
	o := edOptions()
	o.ReadTimeout = 60 * time.Millisecond
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	// Trickle header bytes without ever completing a request: each byte
	// refreshes the activity stamp, so only the request-assembly budget
	// (RequestPendingFor) can catch it.
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := c.Write([]byte("x")); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	waitFor(t, "slowloris conn to be reaped", func() bool { return s.ActiveConns() == 0 })
	if s.ParkedConns() != 0 {
		t.Fatalf("ParkedConns = %d after slowloris reap, want 0", s.ParkedConns())
	}
}

func TestEventDrivenOffKeepsGoroutinePath(t *testing.T) {
	// The fast path is a rule, not an option: an installed hook is offered
	// decoded requests on the goroutine read path too. It answers exactly
	// as the queued echo would, so only its counter tells the paths apart.
	var inline atomic.Int32
	s, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{},
		FastPath: func(c *Conn, req any) bool {
			if req != "fast" {
				return false
			}
			inline.Add(1)
			c.BeginRequest()
			_ = c.Reply("echo: fast")
			return true
		}})
	if os := s.Options(); os.EventDriven != eventDrivenSweep {
		t.Fatalf("Options().EventDriven = %v, sweep=%v", os.EventDriven, eventDrivenSweep)
	}
	c := dial(t, addr)
	r := bufio.NewReader(c)
	// The first request of a fresh connection finds no drain in progress,
	// so the goroutine that reads it serves it inline.
	for _, req := range []string{"fast", "plain"} {
		fmt.Fprint(c, req+"\n")
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line != "echo: "+req+"\n" {
			t.Fatalf("got %q", line)
		}
	}
	if inline.Load() != 1 {
		t.Fatalf("FastPath served %d requests inline, want 1", inline.Load())
	}
	if !eventDrivenSweep && s.EventDriven() {
		t.Fatal("EventDriven() = true without the option")
	}
}
