package acceptor

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/profiling"
	"repro/internal/reactor"
)

func newReactor(t *testing.T) *reactor.Reactor {
	t.Helper()
	r, err := reactor.New(reactor.Config{DispatcherThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func TestNewValidation(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	defer ln.Close()
	if _, err := New(Config{Reactor: r}); err == nil {
		t.Error("missing listener accepted")
	}
	if _, err := New(Config{Listener: ln}); err == nil {
		t.Error("missing reactor accepted")
	}
}

func TestAcceptEmitsReadyEvent(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	prof := profiling.New()
	a, err := New(Config{Listener: ln, Reactor: r, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	r.Register(a.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
		if rd.Type == reactor.AcceptReady {
			accepted <- rd.Data.(net.Conn)
		}
	}))
	r.Run()
	defer r.Stop()
	go a.Run()
	defer a.Close()

	client, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	select {
	case conn := <-accepted:
		conn.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("no AcceptReady event")
	}
	if got := prof.Snapshot().ConnectionsAccepted; got != 1 {
		t.Errorf("accepted counter = %d", got)
	}
}

type boolGate struct{ open atomic.Bool }

func (g *boolGate) AcceptAllowed() bool { return g.open.Load() }

func TestGatePostponesAccepts(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	gate := &boolGate{}
	a, err := New(Config{Listener: ln, Reactor: r, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{}, 4)
	r.Register(a.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
		rd.Data.(net.Conn).Close()
		accepted <- struct{}{}
	}))
	r.Run()
	defer r.Stop()
	go a.Run()
	defer a.Close()

	// Client connects while the gate is closed: the connection sits in
	// the listen backlog, unaccepted.
	client, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	select {
	case <-accepted:
		t.Fatal("accepted while gate closed")
	case <-time.After(30 * time.Millisecond):
	}
	if a.Deferred() == 0 {
		t.Error("postponements not counted")
	}
	gate.open.Store(true)
	select {
	case <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("never accepted after gate opened")
	}
}

// TestDeferredCountsOncePerPostponedAccept holds the gate shut for about
// 50 gate polls with one dial waiting in the backlog: the postponed accept
// counts once, not once per poll.
func TestDeferredCountsOncePerPostponedAccept(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	gate := &boolGate{}
	a, err := New(Config{Listener: ln, Reactor: r, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{}, 1)
	r.Register(a.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
		rd.Data.(net.Conn).Close()
		accepted <- struct{}{}
	}))
	r.Run()
	defer r.Stop()
	go a.Run()
	defer a.Close()

	client, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	time.Sleep(50 * time.Millisecond)
	gate.open.Store(true)
	select {
	case <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("never accepted after gate opened")
	}
	if got := a.Deferred(); got != 1 {
		t.Errorf("Deferred() = %d after one postponed accept, want 1", got)
	}
}

// TestShedCountsRefusals: with a Shed hook a closed gate accepts and sheds
// instead of postponing, and each shed connection counts once as deferred
// and once as refused in the profile.
func TestShedCountsRefusals(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	prof := profiling.New()
	shed := make(chan net.Conn, 2)
	a, err := New(Config{
		Listener: ln, Reactor: r, Gate: &boolGate{}, Profile: prof,
		Shed: func(c net.Conn) { c.Close(); shed <- c },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Register(a.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
		t.Error("connection attached while the gate is closed")
		rd.Data.(net.Conn).Close()
	}))
	r.Run()
	defer r.Stop()
	go a.Run()
	defer a.Close()

	for i := 0; i < 2; i++ {
		client, err := net.Dial("tcp", a.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		select {
		case <-shed:
		case <-time.After(2 * time.Second):
			t.Fatal("connection not shed while the gate is closed")
		}
	}
	if got := prof.Snapshot().ConnectionsRefused; got != 2 {
		t.Errorf("refused = %d, want 2", got)
	}
	if got := a.Deferred(); got != 2 {
		t.Errorf("Deferred() = %d, want 2", got)
	}
}

func TestMaxConnsBound(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	a, err := New(Config{
		Listener: ln, Reactor: r,
		MaxConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 4)
	r.Register(a.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
		accepted <- rd.Data.(net.Conn)
	}))
	r.Run()
	defer r.Stop()
	go a.Run()
	defer a.Close()

	c1, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	var s1 net.Conn
	select {
	case s1 = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("first connection not accepted")
	}
	if a.Live() != 1 {
		t.Errorf("Live = %d", a.Live())
	}
	// Second connection must wait while the bound is reached.
	c2, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	select {
	case <-accepted:
		t.Fatal("accepted past MaxConns")
	case <-time.After(30 * time.Millisecond):
	}
	// Releasing the first connection admits the second.
	s1.Close()
	a.ConnClosed()
	select {
	case s2 := <-accepted:
		s2.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("second connection never accepted after release")
	}
}

func TestCloseStopsRun(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	a, err := New(Config{Listener: ln, Reactor: r})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	defer r.Stop()
	done := make(chan struct{})
	go func() { a.Run(); close(done) }()
	time.Sleep(5 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after Close")
	}
}

func TestCloseWhilePostponed(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	gate := &boolGate{} // stays closed
	a, err := New(Config{Listener: ln, Reactor: r, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	defer r.Stop()
	done := make(chan struct{})
	go func() { a.Run(); close(done) }()
	time.Sleep(5 * time.Millisecond)
	_ = a.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("postponed Run did not exit after Close")
	}
}

func TestConnectorDeliversCompletion(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
	}()

	got := make(chan *events.Completion, 1)
	r.RegisterType(reactor.CompletionReady, reactor.HandlerFunc(func(rd reactor.Ready) {
		got <- rd.Data.(*events.Completion)
	}))
	r.Run()
	defer r.Stop()

	c := NewConnector(r, time.Second, nil)
	tok := c.Connect("tcp", ln.Addr().String(), "ftp-data", nil)
	select {
	case comp := <-got:
		if comp.Token != tok {
			t.Errorf("token mismatch: %v vs %v", comp.Token, tok)
		}
		if comp.Err != nil {
			t.Errorf("dial error: %v", comp.Err)
		}
		conn, ok := comp.Result.(net.Conn)
		if !ok || conn == nil {
			t.Fatalf("result = %T", comp.Result)
		}
		conn.Close()
		if tok.State.(string) != "ftp-data" {
			t.Errorf("token state = %v", tok.State)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("connect completion never delivered")
	}
}

func TestConnectorReportsDialError(t *testing.T) {
	r := newReactor(t)
	got := make(chan *events.Completion, 1)
	r.RegisterType(reactor.CompletionReady, reactor.HandlerFunc(func(rd reactor.Ready) {
		got <- rd.Data.(*events.Completion)
	}))
	r.Run()
	defer r.Stop()
	c := NewConnector(r, 100*time.Millisecond, nil)
	// Port 1 on localhost should refuse immediately.
	c.Connect("tcp", "127.0.0.1:1", nil, nil)
	select {
	case comp := <-got:
		if comp.Err == nil {
			t.Error("expected dial error")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("error completion never delivered")
	}
}

func TestRunExitsOnExternalListenerClose(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	tr := logging.NewTrace(nil, 16)
	a, err := New(Config{Listener: ln, Reactor: r, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	defer r.Stop()
	done := make(chan struct{})
	go func() { a.Run(); close(done) }()
	time.Sleep(5 * time.Millisecond)
	// The listener dies underneath the acceptor (not via a.Close).
	ln.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit on listener failure")
	}
	var traced bool
	for _, rec := range tr.Snapshot() {
		if rec.Component == "acceptor" && strings.Contains(rec.Event, "accept failed") {
			traced = true
		}
	}
	if !traced {
		t.Error("accept failure not traced")
	}
}

func TestRunExitsWhenReactorStopped(t *testing.T) {
	r := newReactor(t)
	ln := listen(t)
	a, err := New(Config{Listener: ln, Reactor: r})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	r.Stop() // the event source is closed: emits will fail
	done := make(chan struct{})
	go func() { a.Run(); close(done) }()
	// A client connects; the accept succeeds but the emit fails, so the
	// acceptor must close the connection and exit.
	client, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after reactor stop")
	}
	// The accepted connection was closed by the acceptor.
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Error("orphaned connection left open")
	}
	_ = a.Close()
}
