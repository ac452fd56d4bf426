package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/copshttp"
	"repro/internal/nserver"
	"repro/internal/options"
	"repro/internal/profiling"
)

// idCodec is a line codec whose replies carry the backend's identity.
type idCodec struct{}

func (idCodec) Decode(buf []byte) (any, int, error) {
	for i, c := range buf {
		if c == '\n' {
			return string(buf[:i]), i + 1, nil
		}
	}
	return nil, 0, nil
}

func (idCodec) Encode(reply any) ([]byte, error) {
	return append([]byte(reply.(string)), '\n'), nil
}

// startBackend runs one N-Server that identifies itself in every reply.
func startBackend(t *testing.T, id string) string {
	t.Helper()
	srv, err := nserver.New(nserver.Config{
		Options: options.Options{
			DispatcherThreads:  1,
			SeparateThreadPool: true,
			EventThreads:       2,
			Codec:              true,
		},
		App: nserver.AppFuncs{Request: func(c *nserver.Conn, req any) {
			_ = c.Reply(id + ":" + req.(string))
		}},
		Codec: idCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

func startBalancer(t *testing.T, cfg Config) *Balancer {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Shutdown)
	return b
}

// askOnce opens a connection through the balancer, sends one request and
// returns the backend id prefix of the reply.
func askOnce(t *testing.T, addr string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "ping\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	id, _, ok := strings.Cut(strings.TrimSpace(line), ":")
	if !ok {
		t.Fatalf("malformed reply %q", line)
	}
	return id
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err != ErrNoBackends {
		t.Errorf("empty backends: %v", err)
	}
	if _, err := New(Config{Backends: []string{""}}); err == nil {
		t.Error("empty address accepted")
	}
	b, err := New(Config{Backends: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "round-robin") {
		t.Errorf("String = %q", b.String())
	}
	if RoundRobin.String() != "round-robin" || LeastConnections.String() != "least-connections" {
		t.Error("strategy strings wrong")
	}
}

func TestRoundRobinDistributesConnections(t *testing.T) {
	a := startBackend(t, "A")
	bAddr := startBackend(t, "B")
	lb := startBalancer(t, Config{Backends: []string{a, bAddr}})
	seen := map[string]int{}
	for i := 0; i < 8; i++ {
		seen[askOnce(t, lb.Addr().String())]++
	}
	if seen["A"] != 4 || seen["B"] != 4 {
		t.Errorf("round robin skewed: %v", seen)
	}
	fw := lb.Forwarded()
	if fw[a] != 4 || fw[bAddr] != 4 {
		t.Errorf("forwarded counts: %v", fw)
	}
}

func TestConnectionAffinity(t *testing.T) {
	// All requests of one client connection land on one backend (the
	// pipeline runs on exactly one N-Server).
	a := startBackend(t, "A")
	bAddr := startBackend(t, "B")
	lb := startBalancer(t, Config{Backends: []string{a, bAddr}})
	conn, err := net.Dial("tcp", lb.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	var first string
	for i := 0; i < 5; i++ {
		fmt.Fprintf(conn, "req%d\n", i)
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		id, rest, _ := strings.Cut(strings.TrimSpace(line), ":")
		if rest != fmt.Sprintf("req%d", i) {
			t.Fatalf("reply %q", line)
		}
		if first == "" {
			first = id
		} else if id != first {
			t.Fatalf("connection switched backends: %s then %s", first, id)
		}
	}
}

func TestFailoverSkipsDeadBackend(t *testing.T) {
	alive := startBackend(t, "A")
	// A dead address: listener opened then closed immediately.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	prof := profiling.New()
	lb := startBalancer(t, Config{
		Backends: []string{deadAddr, alive},
		CoolDown: 50 * time.Millisecond,
		Profile:  prof,
	})
	for i := 0; i < 4; i++ {
		if id := askOnce(t, lb.Addr().String()); id != "A" {
			t.Fatalf("request %d served by %q", i, id)
		}
	}
	if lb.Forwarded()[deadAddr] != 0 {
		t.Error("connections counted on the dead backend")
	}
}

func TestAllBackendsDownDropsClient(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	prof := profiling.New()
	lb := startBalancer(t, Config{
		Backends:    []string{deadAddr},
		DialTimeout: 200 * time.Millisecond,
		CoolDown:    10 * time.Second,
		Profile:     prof,
	})
	conn, err := net.Dial("tcp", lb.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("client connection survived with no backends")
	}
	// Second client hits the cool-down path (no healthy backend at all).
	conn2, err := net.Dial("tcp", lb.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetReadDeadline(time.Now().Add(3 * time.Second))
	conn2.Read(make([]byte, 1))
	deadline := time.After(2 * time.Second)
	for prof.Snapshot().ConnectionsRefused < 2 {
		select {
		case <-deadline:
			t.Fatalf("refused = %d", prof.Snapshot().ConnectionsRefused)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestLeastConnectionsPrefersIdleBackend(t *testing.T) {
	a := startBackend(t, "A")
	bAddr := startBackend(t, "B")
	lb := startBalancer(t, Config{
		Backends: []string{a, bAddr},
		Strategy: LeastConnections,
	})
	// Park several long-lived connections; least-connections must keep
	// the live counts balanced within one.
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 6; i++ {
		c, err := net.Dial("tcp", lb.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		// Confirm the forward is established before the next dial so the
		// live counts are settled.
		c.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprint(c, "hold\n")
		if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	live := lb.Live()
	if live[a] != 3 || live[bAddr] != 3 {
		t.Errorf("least-connections imbalance: %v", live)
	}
}

func TestConcurrentClientsThroughBalancer(t *testing.T) {
	a := startBackend(t, "A")
	bAddr := startBackend(t, "B")
	lb := startBalancer(t, Config{Backends: []string{a, bAddr}})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", lb.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for j := 0; j < 10; j++ {
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				fmt.Fprintf(conn, "c%d-%d\n", id, j)
				line, err := r.ReadString('\n')
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", id, err)
					return
				}
				if !strings.Contains(line, fmt.Sprintf("c%d-%d", id, j)) {
					errs <- fmt.Errorf("client %d got %q", id, line)
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
}

// startBackendOn runs an identifying N-Server on a specific address
// (used to "revive" a backend the balancer has seen die).
func startBackendOn(t *testing.T, id, addr string) {
	t.Helper()
	srv, err := nserver.New(nserver.Config{
		Options: options.Options{
			DispatcherThreads:  1,
			SeparateThreadPool: true,
			EventThreads:       2,
			Codec:              true,
		},
		App: nserver.AppFuncs{Request: func(c *nserver.Conn, req any) {
			_ = c.Reply(id + ":" + req.(string))
		}},
		Codec: idCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
}

// deadAddr returns an address that was briefly bound and then released,
// so dials to it are refused until a test rebinds it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestRetryBudgetDedupesBadBackend(t *testing.T) {
	// With a near-zero backoff the dead backend is re-eligible almost
	// immediately; without deduped attempts it could be dialed twice and
	// exhaust the per-accept loop, dropping the client even though a
	// healthy backend exists. Every request must land on A.
	alive := startBackend(t, "A")
	lb := startBalancer(t, Config{
		Backends: []string{deadAddr(t), alive},
		CoolDown: time.Nanosecond,
		Seed:     1,
	})
	for i := 0; i < 4; i++ {
		if id := askOnce(t, lb.Addr().String()); id != "A" {
			t.Fatalf("request %d served by %q", i, id)
		}
	}
}

func TestRedialRevivesOnlyBackend(t *testing.T) {
	// The only backend dies and its circuit opens, so clients are dropped
	// while it is down; once it is rebound, its re-dial closes the circuit
	// and requests reach it again.
	addr := deadAddr(t)
	lb := startBalancer(t, Config{
		Backends:    []string{addr},
		DialTimeout: 200 * time.Millisecond,
		CoolDown:    20 * time.Millisecond,
		Seed:        7,
	})
	conn, err := net.Dial("tcp", lb.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("client served with backend down")
	}
	conn.Close()

	startBackendOn(t, "R", addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("backend never revived by its re-dial")
		}
		time.Sleep(30 * time.Millisecond)
		c, err := net.Dial("tcp", lb.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(2 * time.Second))
		fmt.Fprint(c, "ping\n")
		line, err := bufio.NewReader(c).ReadString('\n')
		c.Close()
		if err == nil && strings.HasPrefix(line, "R:") {
			return
		}
	}
}

// waitClosed polls the balancer's breaker snapshot, without sending any
// client traffic, until addr's circuit is closed or the deadline passes.
func waitClosed(t *testing.T, lb *Balancer, addr string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		for _, bs := range lb.BackendStates() {
			if bs.Addr == addr && bs.State == "closed" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit of %s still open %v after the restart: %+v", addr, within, lb.BackendStates())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestActiveProbeRevivesBackendWithoutClientTraffic(t *testing.T) {
	// A restarted backend must rejoin while another backend is healthy,
	// with only the settings copscluster exposes: its circuit's own
	// re-dial closes it within the backoff plus one dial, with no client
	// traffic at all, and round-robin then reaches it within two requests.
	addr := deadAddr(t)
	alive := startBackend(t, "A")
	lb := startBalancer(t, Config{
		Backends: []string{addr, alive},
		CoolDown: 20 * time.Millisecond,
		Seed:     3,
	})
	// Open the dead backend's circuit with one request (served by A).
	if id := askOnce(t, lb.Addr().String()); id != "A" {
		t.Fatalf("served by %q", id)
	}
	startBackendOn(t, "R", addr)
	// The first backoff is at most CoolDown; a loopback dial is quick.
	waitClosed(t, lb, addr, time.Second)
	seen := map[string]bool{}
	seen[askOnce(t, lb.Addr().String())] = true
	seen[askOnce(t, lb.Addr().String())] = true
	if !seen["R"] {
		t.Fatalf("restarted backend not reached: %v", seen)
	}
}

// countingListener accepts and closes connections on addr, counting them.
func countingListener(t *testing.T, addr string) *atomic.Int64 {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			c.Close()
		}
	}()
	return &n
}

func TestConcurrentFailuresArmOneRedial(t *testing.T) {
	// Two client dials to one closed backend fail at once: the first
	// opens the circuit and arms its re-dial, the second finds it open and
	// arms nothing, so exactly one re-dial reaches the restarted backend.
	addr := deadAddr(t)
	lb, err := New(Config{Backends: []string{addr}, CoolDown: 20 * time.Millisecond, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Shutdown)
	be := lb.backends[0]
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); <-start; lb.backendFailed(be) }()
	}
	close(start)
	wg.Wait()
	if st := lb.BackendStates()[0]; st.State != "open" || st.Fails != 1 {
		t.Fatalf("after two concurrent failures: %+v, want open with 1 failure", st)
	}
	dials := countingListener(t, addr)
	waitClosed(t, lb, addr, time.Second)
	// Give a second, wrongly armed re-dial (due within the same
	// jittered backoff) time to show up.
	time.Sleep(100 * time.Millisecond)
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d re-dials reached the backend, want exactly 1", n)
	}
}

func TestShutdownStopsRedials(t *testing.T) {
	// A dead backend with a 1ms backoff re-dials and fails continuously.
	// Shutdown must stop the armed re-dial and wait out a running one:
	// afterwards the failure count never moves again, no timer is left
	// armed, and the goroutine count returns to its baseline.
	base := runtime.NumGoroutine()
	lb, err := New(Config{Backends: []string{deadAddr(t)}, CoolDown: time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	be := lb.backends[0]
	lb.backendFailed(be)
	// Let a few re-dials fail so one is likely armed or mid-dial.
	for lb.BackendStates()[0].Fails < 3 {
		time.Sleep(time.Millisecond)
	}
	lb.Shutdown()
	be.mu.Lock()
	armed := be.redial != nil
	be.mu.Unlock()
	if armed {
		t.Fatal("re-dial timer still armed after Shutdown")
	}
	fails := lb.BackendStates()[0].Fails
	time.Sleep(50 * time.Millisecond)
	if now := lb.BackendStates()[0].Fails; now != fails {
		t.Fatalf("re-dials continued after Shutdown: fails %d -> %d", fails, now)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after Shutdown, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBreakerTransitionIsAtomic pins the torn-transition regression: a
// success (backendHealthy) and a concurrent failure (backendFailed) used
// to interleave their compound stores, leaving the circuit open with the
// consecutive-failure count already reset to zero — a state neither
// transition alone can produce. With the per-backend transition mutex
// the observable state is always one of the two serial orders; run
// under -race this also exercises the locking itself.
func TestBreakerTransitionIsAtomic(t *testing.T) {
	b, err := New(Config{Backends: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	be := b.backends[0]
	for i := 0; i < 2000; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); b.backendFailed(be) }()
		go func() { defer wg.Done(); b.backendHealthy(be) }()
		wg.Wait()
		st := b.BackendStates()[0]
		if st.State == "open" && st.Fails == 0 {
			t.Fatalf("iteration %d: circuit open with zero consecutive failures (torn transition)", i)
		}
		if st.State == "closed" && st.Fails != 0 {
			t.Fatalf("iteration %d: circuit closed with %d stale failures (torn transition)", i, st.Fails)
		}
		b.backendHealthy(be)
	}
	if got := b.BackendStates()[0].State; got != "closed" {
		t.Fatalf("final state %s, want closed", got)
	}
}

func TestShutdownDrainTimeoutForcesStragglers(t *testing.T) {
	a := startBackend(t, "A")
	lb := startBalancer(t, Config{
		Backends:     []string{a},
		DrainTimeout: 100 * time.Millisecond,
	})
	// Park a connection mid-forward: splices stay live with no deadline.
	conn, err := net.Dial("tcp", lb.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "hold\n")
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	lb.Shutdown()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v despite 100ms drain timeout", elapsed)
	}
	// The parked client's transport was force-closed by the drain.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("parked connection survived shutdown")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	a := startBackend(t, "A")
	lb := startBalancer(t, Config{Backends: []string{a}})
	addr := lb.Addr().String()
	lb.Shutdown()
	lb.Shutdown()
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Error("front end open after shutdown")
	}
}

// TestHalfCloseThroughBalancer: a client that sends one request and then
// shuts down its write side gets the whole reply, then EOF, through the
// balancer. The splice half-closes the upstream when the client's side
// ends, so the backend reads EOF right behind the request and must still
// answer it: a keep-alive GET of a file not cached yet, and an HTTP/1.0
// GET, on COPS-HTTP.
func TestHalfCloseThroughBalancer(t *testing.T) {
	const conns = 16
	root := t.TempDir()
	for i := 0; i < conns; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("f%d.txt", i)), []byte(fmt.Sprintf("file %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hs, err := copshttp.New(copshttp.Config{DocRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hs.Shutdown)
	lb := startBalancer(t, Config{Backends: []string{hs.Addr()}})

	lost := 0
	for i := 0; i < conns; i++ {
		for _, req := range []string{
			fmt.Sprintf("GET /f%d.txt HTTP/1.1\r\nHost: t\r\n\r\n", i),
			fmt.Sprintf("GET /f%d.txt HTTP/1.0\r\n\r\n", i),
		} {
			conn, err := net.Dial("tcp", lb.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			fmt.Fprint(conn, req)
			conn.(*net.TCPConn).CloseWrite()
			got, err := io.ReadAll(conn)
			conn.Close()
			want := fmt.Sprintf("file %d", i)
			if err != nil || !strings.HasPrefix(string(got), "HTTP/1.") || !strings.Contains(string(got), " 200 OK\r\n") || !strings.HasSuffix(string(got), want) {
				lost++
				if lost == 1 {
					t.Errorf("%q: got %q, %v", req, got, err)
				}
			}
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d half-closed clients lost their reply", lost, 2*conns)
	}
}
