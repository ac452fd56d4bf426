package nserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/options"
)

// lineCodec is a newline-delimited test codec: requests and replies are
// text lines.
type lineCodec struct{}

func (lineCodec) Decode(buf []byte) (any, int, error) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return nil, 0, nil
	}
	return string(buf[:i]), i + 1, nil
}

func (lineCodec) Encode(reply any) ([]byte, error) {
	s, ok := reply.(string)
	if !ok {
		return nil, fmt.Errorf("lineCodec: reply must be string, got %T", reply)
	}
	return []byte(s + "\n"), nil
}

// testOptions is a minimal valid configuration with a codec and a pool.
func testOptions() options.Options {
	return options.Options{
		DispatcherThreads:  1,
		SeparateThreadPool: true,
		EventThreads:       2,
		Codec:              true,
		Mode:               options.Production,
	}
}

// echoApp replies to each request line with "echo: <line>".
func echoApp() App {
	return AppFuncs{
		Request: func(c *Conn, req any) {
			_ = c.Reply("echo: " + req.(string))
		},
	}
}

// startServer builds and starts a server on loopback, returning it with
// its address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return startServerOn(t, cfg, false)
}

// startServerOn is startServer with every accepted transport wrapped in
// an opaqueConn when wrapped is set.
func startServerOn(t *testing.T, cfg Config, wrapped bool) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sl net.Listener = ln
	if wrapped {
		sl = opaqueListener{ln}
	}
	if err := s.Start(sl); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s, ln.Addr().String()
}

// opaqueConn hides the transport's raw descriptor, modelling faultnet and
// TLS-like decorators: it embeds the net.Conn interface, so it does not
// implement syscall.Conn, and the connection reads and writes through the
// portable blocking calls.
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

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Options: options.Options{}, App: echoApp()}); err == nil {
		t.Error("invalid options accepted")
	}
	o := testOptions()
	if _, err := New(Config{Options: o, Codec: lineCodec{}}); err == nil {
		t.Error("missing app accepted")
	}
	if _, err := New(Config{Options: o, App: echoApp()}); err == nil {
		t.Error("O3 without codec accepted")
	}
	o2 := testOptions()
	o2.Codec = false
	if _, err := New(Config{Options: o2, App: echoApp(), Codec: lineCodec{}}); err == nil {
		t.Error("codec without O3 accepted")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	s, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	r := bufio.NewReader(c)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(c, "hello %d\n", i)
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("echo: hello %d\n", i); line != want {
			t.Fatalf("got %q want %q", line, want)
		}
	}
	if s.ActiveConns() != 1 {
		t.Errorf("ActiveConns = %d", s.ActiveConns())
	}
}

func TestPipelinedRequestsInOneChunk(t *testing.T) {
	_, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	// Five pipelined requests in a single write (one ReadReady chunk).
	if _, err := c.Write([]byte("a\nb\ncc\nd\ne\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	for _, want := range []string{"echo: a\n", "echo: b\n", "echo: cc\n", "echo: d\n", "echo: e\n"} {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line != want {
			t.Fatalf("got %q want %q", line, want)
		}
	}
}

func TestSplitRequestAcrossChunks(t *testing.T) {
	_, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	r := bufio.NewReader(c)
	// Write a request byte by byte with pauses so it arrives in many
	// chunks; the decode loop must reassemble it.
	for _, b := range []byte("fragmented") {
		if _, err := c.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Write([]byte{'\n'}); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "echo: fragmented\n" {
		t.Fatalf("got %q", line)
	}
}

func TestRawModeWithoutCodec(t *testing.T) {
	o := testOptions()
	o.Codec = false
	var got atomic.Value
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			got.Store(string(req.([]byte)))
			_ = c.Reply([]byte("raw-reply"))
		},
	}
	_, addr := startServer(t, Config{Options: o, App: app})
	c := dial(t, addr)
	if _, err := c.Write([]byte("raw-data")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "raw-reply" {
		t.Fatalf("reply = %q", buf[:n])
	}
	if got.Load().(string) != "raw-data" {
		t.Fatalf("request = %q", got.Load())
	}
}

func TestConnectAndCloseHooks(t *testing.T) {
	var connects, closes atomic.Int64
	closeErrs := make(chan error, 1)
	app := AppFuncs{
		Connect: func(c *Conn) {
			connects.Add(1)
			_ = c.Reply("220 welcome")
		},
		Close: func(c *Conn, err error) {
			closes.Add(1)
			closeErrs <- err
		},
	}
	s, addr := startServer(t, Config{Options: testOptions(), App: app, Codec: lineCodec{}})
	c := dial(t, addr)
	r := bufio.NewReader(c)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "220 welcome\n" {
		t.Fatalf("greeting = %q", line)
	}
	c.Close()
	select {
	case err := <-closeErrs:
		if err != nil {
			t.Errorf("close err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnClose never ran")
	}
	deadline := time.After(2 * time.Second)
	for s.ActiveConns() != 0 {
		select {
		case <-deadline:
			t.Fatal("connection not detached")
		case <-time.After(time.Millisecond):
		}
	}
	if connects.Load() != 1 || closes.Load() != 1 {
		t.Errorf("connects=%d closes=%d", connects.Load(), closes.Load())
	}
}

func TestDecodeErrorClosesConnection(t *testing.T) {
	bad := AppFuncs{}
	codec := codecFunc{
		decode: func(buf []byte) (any, int, error) {
			return nil, 0, errors.New("malformed")
		},
		encode: func(reply any) ([]byte, error) { return reply.([]byte), nil },
	}
	_, addr := startServer(t, Config{Options: testOptions(), App: bad, Codec: codec})
	c := dial(t, addr)
	if _, err := c.Write([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Error("connection not closed after decode error")
	}
}

type codecFunc struct {
	decode func([]byte) (any, int, error)
	encode func(any) ([]byte, error)
}

func (c codecFunc) Decode(buf []byte) (any, int, error) { return c.decode(buf) }
func (c codecFunc) Encode(reply any) ([]byte, error)    { return c.encode(reply) }

func TestHandlerPanicClosesOnlyThatConnection(t *testing.T) {
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			if req.(string) == "bomb" {
				panic("kaboom")
			}
			_ = c.Reply("ok")
		},
	}
	o := testOptions()
	o.Mode = options.Debug
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	victim := dial(t, addr)
	fmt.Fprint(victim, "bomb\n")
	victim.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := victim.Read(make([]byte, 1)); err == nil {
		t.Error("panicking connection survived")
	}
	// Another connection still works.
	okConn := dial(t, addr)
	fmt.Fprint(okConn, "ping\n")
	line, err := bufio.NewReader(okConn).ReadString('\n')
	if err != nil || line != "ok\n" {
		t.Fatalf("server broken after handler panic: %q %v", line, err)
	}
	// Debug trace captured the panic.
	found := false
	for _, r := range s.Trace().Snapshot() {
		if strings.Contains(r.Event, "kaboom") {
			found = true
		}
	}
	if !found {
		t.Error("panic not in debug trace")
	}
}

// TestDebugTraceRecordsConnectionEvents: in debug mode (O10) the reactor
// traces every event it routes, so one connection's accept, queued read
// and close all appear in the trace.
func TestDebugTraceRecordsConnectionEvents(t *testing.T) {
	o := testOptions()
	o.Mode = options.Debug
	closed := make(chan struct{})
	app := echoApp().(AppFuncs)
	app.Close = func(*Conn, error) { close(closed) }
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	c := dial(t, addr)
	fmt.Fprint(c, "ping\n")
	if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose never ran")
	}
	routed := map[string]bool{}
	for _, r := range s.Trace().Snapshot() {
		if ev, ok := strings.CutPrefix(r.Event, "route ready{"); ok {
			routed[strings.Fields(ev)[0]] = true
		}
	}
	for _, want := range []string{"accept", "poll", "close"} {
		if !routed[want] {
			t.Errorf("no %s event in the debug trace (routed: %v)", want, routed)
		}
	}
}

func TestIdleReaperClosesIdleConnections(t *testing.T) {
	o := testOptions()
	o.ShutdownLongIdle = true
	o.IdleTimeout = 50 * time.Millisecond
	o.Profiling = true
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection not closed")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("closed too early: %v", elapsed)
	}
	if got := s.Profile().Snapshot().IdleShutdowns; got != 1 {
		t.Errorf("IdleShutdowns = %d", got)
	}
}

func TestActiveConnectionNotReaped(t *testing.T) {
	o := testOptions()
	o.ShutdownLongIdle = true
	o.IdleTimeout = 60 * time.Millisecond
	_, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	r := bufio.NewReader(c)
	// Keep traffic flowing for 4 idle-timeouts.
	for i := 0; i < 12; i++ {
		fmt.Fprintf(c, "keepalive\n")
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatalf("active connection reaped at iteration %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestAsyncFileServingThroughAIO(t *testing.T) {
	dir := t.TempDir()
	body := []byte("file payload for async test")
	if err := os.WriteFile(filepath.Join(dir, "f.txt"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	o := testOptions()
	o.Completion = options.AsynchronousCompletion
	o.Cache = options.LRU
	o.CacheCapacity = 1 << 20
	o.FileIOThreads = 2
	o.Profiling = true
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			name := req.(string)
			_, _ = c.Server().AIO().ReadFile(filepath.Join(dir, name), c, c.Priority(),
				func(tok events.Token, data []byte, err error) {
					conn := tok.State.(*Conn)
					if err != nil {
						_ = conn.Reply("ERR " + err.Error())
						return
					}
					_ = conn.Reply("OK " + string(data))
				})
		},
	}
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	c := dial(t, addr)
	r := bufio.NewReader(c)
	for i := 0; i < 3; i++ {
		fmt.Fprint(c, "f.txt\n")
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := "OK " + string(body) + "\n"; line != want {
			t.Fatalf("got %q want %q", line, want)
		}
	}
	// Second and third reads were cache hits.
	snap := s.Profile().Snapshot()
	if snap.CacheHits != 2 || snap.CacheMisses != 1 {
		t.Errorf("cache hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}
	if s.Cache() == nil || s.Cache().Len() != 1 {
		t.Error("cache not populated")
	}
}

func TestPrioritySchedulingAssignsConnectionPriority(t *testing.T) {
	o := testOptions().WithScheduling(4, 1)
	prioCh := make(chan events.Priority, 2)
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			prioCh <- c.Priority()
			_ = c.Reply("done")
		},
	}
	var flip atomic.Int32
	prio := func(c *Conn) events.Priority {
		if flip.Add(1)%2 == 1 {
			return 0
		}
		return 1
	}
	_, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}, Priority: prio})
	seen := map[events.Priority]bool{}
	for i := 0; i < 2; i++ {
		c := dial(t, addr)
		fmt.Fprint(c, "x\n")
		if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		seen[<-prioCh] = true
		c.Close()
	}
	if !seen[0] || !seen[1] {
		t.Errorf("priorities seen: %v", seen)
	}
}

func TestOverloadControlPausesAccepts(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			// The first request wedges its worker; the rest pile up in
			// the reactive queue.
			<-block
			_ = c.Reply("late")
		},
	}
	o := testOptions()
	o.EventThreads = 1
	o = o.WithOverloadControl(4, 1)
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	defer once.Do(func() { close(block) })

	// Saturate: each client sends one request that wedges the worker it
	// lands on, so once every worker is wedged the later clients' attach
	// and read events pile up in the reactive queues past the high
	// watermark of 4. (One client's pipelined chunks would not do it: its
	// read wakeups coalesce behind the single drain that owns the
	// connection.) Each dial also wakes the acceptor, which evaluates the
	// gate before its next Accept.
	clients := 0
	deadline := time.After(5 * time.Second)
	for !s.Overload().Paused() {
		if clients < 40 {
			c := dial(t, addr)
			fmt.Fprintf(c, "r%d\n", clients)
			clients++
		}
		select {
		case <-deadline:
			t.Fatalf("overload never paused accepting after %d clients", clients)
		case <-time.After(2 * time.Millisecond):
		}
	}
	// Let in-flight attaches settle onto the wedged workers.
	time.Sleep(20 * time.Millisecond)
	// While paused, a further client completes the TCP handshake (listen
	// backlog) but is not accepted by the server.
	before := s.ActiveConns()
	c3 := dial(t, addr)
	_ = c3
	time.Sleep(20 * time.Millisecond)
	if got := s.ActiveConns(); got != before {
		t.Errorf("accepted during overload: %d -> %d", before, got)
	}
	// Unblock: the queues drain below the low watermark, the pending
	// attaches complete, and accepting resumes so c3 is finally admitted.
	once.Do(func() { close(block) })
	deadline = time.After(5 * time.Second)
	for s.ActiveConns() != clients+1 {
		select {
		case <-deadline:
			t.Fatalf("accepting never resumed: %d of %d clients attached", s.ActiveConns(), clients+1)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestMaxConnectionsBound(t *testing.T) {
	o := testOptions()
	o.MaxConnections = 2
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c1, c2 := dial(t, addr), dial(t, addr)
	_, _ = c1, c2
	deadline := time.After(2 * time.Second)
	for s.ActiveConns() != 2 {
		select {
		case <-deadline:
			t.Fatal("first two connections not accepted")
		case <-time.After(time.Millisecond):
		}
	}
	c3 := dial(t, addr)
	_ = c3
	time.Sleep(20 * time.Millisecond)
	if s.ActiveConns() != 2 {
		t.Fatalf("third connection accepted past bound")
	}
	c1.Close()
	deadline = time.After(2 * time.Second)
	for s.ActiveConns() != 2 {
		select {
		case <-deadline:
			t.Fatal("third connection never admitted after release")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestMaxConnectionsBoundAcrossShards: MaxConnections is one bound for
// the whole server at every shard count, counted when a connection is
// accepted, not when a shard worker attaches it. Every shard's only
// worker is held, so no AcceptReady event is processed and the shard
// registries (ActiveConns) read 0 throughout a burst of 8 dials; the
// acceptor must still let in exactly 2.
func TestMaxConnectionsBoundAcrossShards(t *testing.T) {
	const bound, dials = 2, 8
	o := testOptions()
	o.Shards = 2
	o.EventThreads = 1
	o.MaxConnections = bound
	s, err := New(Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	hold := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	t.Cleanup(release) // runs before Shutdown, which drains the workers
	held := make(chan struct{}, o.Shards)
	for _, sh := range s.shards {
		if err := sh.reactive.Submit(events.Func(func() {
			held <- struct{}{}
			<-hold
		})); err != nil {
			t.Fatal(err)
		}
	}
	for range s.shards {
		<-held
	}

	addr := s.Addr().String()
	for i := 0; i < dials; i++ {
		dial(t, addr)
	}
	waitFor(t, "the bound's worth of accepts", func() bool { return s.inflightNow() >= bound })
	time.Sleep(50 * time.Millisecond)
	if n := s.inflightNow(); n > bound {
		t.Fatalf("accepted %d of %d dials with MaxConnections = %d", n, dials, bound)
	}

	release()
	waitFor(t, "the admitted connections to attach", func() bool { return s.ActiveConns() >= bound })
	time.Sleep(50 * time.Millisecond)
	if n := s.ActiveConns(); n > bound {
		t.Fatalf("ActiveConns = %d after release, MaxConnections = %d", n, bound)
	}
}

func TestProfilingCountersEndToEnd(t *testing.T) {
	o := testOptions()
	o.Profiling = true
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	r := bufio.NewReader(c)
	for i := 0; i < 5; i++ {
		fmt.Fprint(c, "count\n")
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	// The last reply's bytes and service time are counted just after its
	// write, so the client can read it first.
	waitFor(t, "the last reply to be counted", func() bool {
		snap := s.Profile().Snapshot()
		return snap.RequestsServed >= 5 && snap.BytesSent >= 5*12
	})
	snap := s.Profile().Snapshot()
	if snap.ConnectionsAccepted != 1 {
		t.Errorf("accepted = %d", snap.ConnectionsAccepted)
	}
	if snap.RequestsServed != 5 {
		t.Errorf("requests = %d", snap.RequestsServed)
	}
	if snap.BytesRead != 5*6 {
		t.Errorf("bytes read = %d", snap.BytesRead)
	}
	if snap.BytesSent != 5*12 {
		t.Errorf("bytes sent = %d", snap.BytesSent)
	}
}

func TestDebugModeTracesLifecycle(t *testing.T) {
	o := testOptions()
	o.Mode = options.Debug
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	fmt.Fprint(c, "x\n")
	if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if tr == nil {
		t.Fatal("debug mode has no trace ring")
	}
	var sawAccept, sawAttach bool
	for _, rec := range tr.Snapshot() {
		if rec.Component == "acceptor" && strings.Contains(rec.Event, "accepted") {
			sawAccept = true
		}
		if rec.Component == "server" && strings.Contains(rec.Event, "communicator attached") {
			sawAttach = true
		}
	}
	if !sawAccept || !sawAttach {
		t.Errorf("lifecycle not traced: accept=%v attach=%v (%d records)",
			sawAccept, sawAttach, tr.Len())
	}
}

func TestShutdownIsCleanAndIdempotent(t *testing.T) {
	s, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	c := dial(t, addr)
	fmt.Fprint(c, "x\n")
	if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	s.Shutdown()
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Error("listener still open after shutdown")
	}
	if err := s.Start(nil); err == nil {
		t.Error("restart after start allowed")
	}
}

func TestConnAccessors(t *testing.T) {
	ready := make(chan *Conn, 1)
	app := AppFuncs{Connect: func(c *Conn) { ready <- c }}
	s, addr := startServer(t, Config{Options: testOptions(), App: app, Codec: lineCodec{}})
	_ = dial(t, addr)
	var c *Conn
	select {
	case c = <-ready:
	case <-time.After(2 * time.Second):
		t.Fatal("no connection")
	}
	if c.Server() != s {
		t.Error("Server() wrong")
	}
	if c.Handle() == 0 {
		t.Error("Handle() zero")
	}
	if c.RemoteAddr() == nil || c.LocalAddr() == nil {
		t.Error("addresses nil")
	}
	c.SetUserData("session-state")
	if c.UserData().(string) != "session-state" {
		t.Error("user data lost")
	}
	c.SetPriority(3)
	if c.Priority() != 3 {
		t.Error("priority lost")
	}
	if c.Closed() {
		t.Error("fresh connection closed")
	}
}

func TestManyConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	const clients, reqs = 20, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			r := bufio.NewReader(c)
			for j := 0; j < reqs; j++ {
				fmt.Fprintf(c, "c%d-%d\n", id, j)
				line, err := r.ReadString('\n')
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", id, j, err)
					return
				}
				if want := fmt.Sprintf("echo: c%d-%d\n", id, j); line != want {
					errs <- fmt.Errorf("client %d got %q want %q", id, line, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	_ = s
}
