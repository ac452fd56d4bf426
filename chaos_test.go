package repro

// The chaos suite: every test drives a live server through
// internal/faultnet with a fixed seed, so the broken-network schedule is
// deterministic and replays byte-for-byte. Each test pins one defense of
// the hardened serve pipeline: read-deadline teardown of stalled peers,
// write completion through partial writes, mid-stream RST isolation,
// corrupted-byte isolation, the balancer's failover under refusals, and
// the O9 load-shedding 503 fast path. `make chaos` runs exactly these
// tests under -race.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/copshttp"
	"repro/internal/events"
	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/nserver"
	"repro/internal/options"
)

// chaosRoot materializes a small document root: an index page and a body
// large enough that mid-stream faults land inside the response.
func chaosRoot(t *testing.T) (dir string, big []byte) {
	t.Helper()
	dir = t.TempDir()
	big = bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte("<html>ok</html>\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, big
}

// residue is a chaos scenario's leak check: the process's open
// descriptors and goroutines when the scenario began, and the
// nserver-based servers it started.
type residue struct {
	fds, goroutines int
	servers         []*nserver.Server
}

// trackResidue records the scenario's baseline and registers
// assertNoResidue as its first cleanup, which therefore runs last: after
// every server the scenario starts has shut down and every listener,
// client and metrics endpoint it opens has closed. A listener opened and
// closed first makes sure the runtime's netpoller descriptors, which
// stay open, are in the baseline.
func trackResidue(t *testing.T) *residue {
	t.Helper()
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	r := &residue{fds: openFDs(t), goroutines: runtime.NumGoroutine()}
	t.Cleanup(func() { r.assertNoResidue(t) })
	return r
}

// watch adds a server to the residue check.
func (r *residue) watch(s *nserver.Server) { r.servers = append(r.servers, s) }

// assertNoResidue shuts each watched server down (Shutdown is
// idempotent) and checks that none still holds a connection, a parked
// write or an outbound byte or has taken a lifecycle transition its table
// forbids, and that the process's open descriptors and goroutines return
// to the scenario's baseline within a deadline.
// bufpool leases are not counted here: that needs a hot-path counter, and
// the lifecycle explorer covers lease accounting.
func (r *residue) assertNoResidue(t *testing.T) {
	t.Helper()
	for i, s := range r.servers {
		s.Shutdown()
		if a, p, b := s.ActiveConns(), s.ParkedWrites(), s.OutboundQueuedBytes(); a != 0 || p != 0 || b != 0 {
			t.Errorf("server %d after Shutdown: %d conns, %d parked writes, %d outbound bytes", i, a, p, b)
		}
		if n := s.LifecycleBadSteps(); n != 0 {
			t.Errorf("server %d took %d forbidden lifecycle steps", i, n)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		// Collecting lets the runtime close what it caches behind a
		// finalizer: the pipes of io.Copy's splice path.
		runtime.GC()
		fds, gs := openFDs(t), runtime.NumGoroutine()
		if fds <= r.fds && gs <= r.goroutines {
			return
		}
		if time.Now().After(deadline) {
			var open []string
			ents, _ := os.ReadDir("/proc/self/fd")
			for _, e := range ents {
				target, _ := os.Readlink("/proc/self/fd/" + e.Name())
				open = append(open, e.Name()+"→"+target)
			}
			buf := make([]byte, 1<<16)
			t.Errorf("residue: %d fds (baseline %d): %v\n%d goroutines (baseline %d):\n%s",
				fds, r.fds, open, gs, r.goroutines, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	return len(ents)
}

// startChaosHTTP starts COPS-HTTP behind a faultnet listener, under the
// residue check.
func startChaosHTTP(t *testing.T, cfg copshttp.Config, s faultnet.Scenario) (*copshttp.Server, *faultnet.Listener, string) {
	t.Helper()
	res := trackResidue(t)
	srv, err := copshttp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.watch(srv.Framework())
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.Wrap(inner, s)
	if err := srv.Framework().Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, ln, ln.Addr().String()
}

// httpGet performs one HTTP/1.0-style exchange and returns the raw
// response (status line, headers and body) read to EOF.
func httpGet(t *testing.T, addr, path string, timeout time.Duration) ([]byte, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	fmt.Fprintf(conn, "GET %s HTTP/1.0\r\n\r\n", path)
	return io.ReadAll(conn)
}

// TestChaosStalledClientTornDownByDeadline: the scenario freezes the
// server-side read stream after the first request, exactly what a
// slowloris peer looks like from inside readLoop. With ReadTimeout armed
// the injected stall surfaces as a timeout at the deadline and the
// connection is torn down instead of parking a Communicator for the
// stall's full five seconds.
func TestChaosStalledClientTornDownByDeadline(t *testing.T) {
	dir, _ := chaosRoot(t)
	opts := options.COPSHTTP().WithHardening(100*time.Millisecond, time.Second, 1<<20)
	_, ln, addr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts},
		faultnet.Scenario{Seed: 1, StallAfterBytes: 8, StallDuration: 5 * time.Second},
	)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	// Keep-alive request: the response arrives, then the server's next
	// read hits the injected stall.
	fmt.Fprint(conn, "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || !strings.Contains(line, "200") {
		t.Fatalf("first response: %q err=%v", line, err)
	}
	// The server must close the stalled connection well before the 5s
	// stall ends; the client observes EOF/reset.
	start := time.Now()
	if _, err := io.Copy(io.Discard, br); err != nil && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("draining stalled conn: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("stalled connection held for %v; deadline defense missing", waited)
	}
	if ln.Stats().Stalls.Load() == 0 {
		t.Fatal("scenario injected no stall — test proves nothing")
	}
	// The server is still healthy for clean clients.
	resp, err := httpGet(t, addr, "/index.html", 3*time.Second)
	if err != nil || !bytes.Contains(resp, []byte("200")) {
		t.Fatalf("post-stall request failed: err=%v resp=%.60q", err, resp)
	}
}

// TestChaosPartialWritesDeliverFullResponse: the peer window is clogged —
// every server write moves at most 7 bytes. The pooled writev send path
// must still deliver the complete 64 KiB body, byte for byte.
func TestChaosPartialWritesDeliverFullResponse(t *testing.T) {
	dir, big := chaosRoot(t)
	opts := options.COPSHTTP().WithHardening(0, 10*time.Second, 0)
	_, _, addr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts},
		faultnet.Scenario{Seed: 2, MaxWritePerCall: 7},
	)
	resp, err := httpGet(t, addr, "/big.bin", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(resp, []byte("\r\n\r\n"))
	if i < 0 {
		t.Fatalf("no header/body split in %.80q", resp)
	}
	if body := resp[i+4:]; !bytes.Equal(body, big) {
		t.Fatalf("body corrupted under partial writes: got %d bytes, want %d", len(body), len(big))
	}
}

// TestChaosMidStreamRSTIsOneConnectionsProblem: the transport aborts with
// a hard reset partway through the big response. The failure must stay on
// that connection — the next clean request is served normally.
func TestChaosMidStreamRSTIsOneConnectionsProblem(t *testing.T) {
	dir, big := chaosRoot(t)
	opts := options.COPSHTTP().WithHardening(time.Second, time.Second, 1<<20)
	_, ln, addr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts},
		faultnet.Scenario{Seed: 3, RSTAfterBytes: 2048},
	)
	resp, err := httpGet(t, addr, "/big.bin", 5*time.Second)
	if err == nil && len(resp) > len(big) {
		t.Fatal("64 KiB response survived a 2 KiB RST budget — no fault injected")
	}
	if ln.Stats().Resets.Load() == 0 {
		t.Fatal("scenario injected no reset")
	}
	// A small exchange fits under the fresh connection's byte budget.
	resp, err = httpGet(t, addr, "/index.html", 3*time.Second)
	if err != nil || !bytes.Contains(resp, []byte(" 200 ")) {
		t.Fatalf("server unhealthy after mid-stream RST: err=%v resp=%.60q", err, resp)
	}
}

// TestChaosCorruptedBytesAreIsolated: every request chunk reaches the
// decoder with one bit flipped. Whatever each mangled request turns into
// (400, 404, 405 or a teardown), no connection may wedge and the server
// must keep draining them — under -race this also proves the error paths
// are data-race free.
func TestChaosCorruptedBytesAreIsolated(t *testing.T) {
	dir, _ := chaosRoot(t)
	opts := options.COPSHTTP().WithHardening(time.Second, time.Second, 1<<20)
	srv, ln, addr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts},
		faultnet.Scenario{Seed: 4, CorruptEvery: 1},
	)
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every exchange must terminate (response or close) inside
			// the deadline; a hung read fails the whole test.
			if _, err := httpGet(t, addr, fmt.Sprintf("/index.html?c=%d", i), 3*time.Second); err != nil &&
				!strings.Contains(err.Error(), "reset") && !strings.Contains(err.Error(), "EOF") {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if ln.Stats().Corrupted.Load() < clients {
		t.Fatalf("only %d corrupted chunks for %d clients", ln.Stats().Corrupted.Load(), clients)
	}
	// All mangled connections drained; nothing leaked.
	deadline := time.Now().Add(3 * time.Second)
	for srv.Framework().ActiveConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections wedged after corruption", srv.Framework().ActiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lineCodec mirrors the cluster tests' newline codec for chaos backends.
type chaosLineCodec struct{ id string }

func (c chaosLineCodec) Decode(buf []byte) (any, int, error) {
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return string(buf[:i]), i + 1, nil
	}
	return nil, 0, nil
}

func (c chaosLineCodec) Encode(reply any) ([]byte, error) {
	return append([]byte(reply.(string)), '\n'), nil
}

// TestChaosBalancerRidesThroughBackendFaults: one backend is a dead
// address, the live one answers through clogged partial writes. The
// deduped retry budget plus the circuit breaker must serve every client
// anyway.
func TestChaosBalancerRidesThroughBackendFaults(t *testing.T) {
	res := trackResidue(t)
	srv, err := nserver.New(nserver.Config{
		Options: options.Options{
			DispatcherThreads:  1,
			SeparateThreadPool: true,
			EventThreads:       2,
			Codec:              true,
		},
		App: nserver.AppFuncs{Request: func(c *nserver.Conn, req any) {
			_ = c.Reply("live:" + req.(string))
		}},
		Codec: chaosLineCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res.watch(srv)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.Wrap(inner, faultnet.Scenario{Seed: 5, MaxWritePerCall: 3})
	if err := srv.Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)

	// A briefly bound, then released port: dials are refused.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := deadLn.Addr().String()
	deadLn.Close()

	lb, err := cluster.New(cluster.Config{
		Backends: []string{dead, ln.Addr().String()},
		CoolDown: time.Millisecond,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Shutdown)

	for i := 0; i < 6; i++ {
		conn, err := net.Dial("tcp", lb.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(conn, "req-%d\n", i)
		line, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err != nil || !strings.HasPrefix(line, "live:req-") {
			t.Fatalf("client %d through faulty cluster: line=%q err=%v", i, line, err)
		}
	}
}

// chaosQueue is a test-controlled queue length for the O9 watermark
// controller: the chaos suite pauses and resumes the accept gate
// deterministically instead of racing real queue depths.
type chaosQueue struct {
	mu sync.Mutex
	n  int
}

func (q *chaosQueue) QueueLen() int { q.mu.Lock(); defer q.mu.Unlock(); return q.n }
func (q *chaosQueue) set(n int)     { q.mu.Lock(); q.n = n; q.mu.Unlock() }

// TestChaosOverloadShedsPrebuilt503: with the overload gate paused, the
// shed fast path must answer immediately with the pooled 503 carrying
// Retry-After, and normal service must resume once the gate reopens.
func TestChaosOverloadShedsPrebuilt503(t *testing.T) {
	dir, _ := chaosRoot(t)
	opts := options.COPSHTTP().WithOverloadControl(20, 5).
		WithHardening(time.Second, time.Second, 1<<20)
	srv, _, addr := startChaosHTTP(t,
		copshttp.Config{
			DocRoot:        dir,
			Options:        &opts,
			ShedOnOverload: true,
			RetryAfter:     7 * time.Second,
		},
		faultnet.Scenario{Seed: 6}, // transparent: the fault is the overload itself
	)
	q := &chaosQueue{}
	if err := srv.Framework().Overload().Watch("chaos", q, 10, 5); err != nil {
		t.Fatal(err)
	}

	q.set(100) // force the gate shut
	resp, err := httpGet(t, addr, "/index.html", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resp, []byte(" 503 ")) {
		t.Fatalf("paused gate did not shed: %.80q", resp)
	}
	if !bytes.Contains(resp, []byte("Retry-After: 7")) {
		t.Fatalf("shed 503 missing Retry-After: %.200q", resp)
	}
	if srv.Shed() == 0 {
		t.Fatal("shed counter not incremented")
	}

	q.set(0) // drain below the low watermark
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err = httpGet(t, addr, "/index.html", 3*time.Second)
		if err == nil && bytes.Contains(resp, []byte(" 200 ")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never resumed after gate reopened: err=%v resp=%.80q", err, resp)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosAdaptiveLimiterShedsByPriorityAndRecovers drives the adaptive
// admission limiter through a full congestion storm while the transport
// clogs every write to a handful of bytes (the overload itself is the
// principal fault, as in the watermark chaos test). The test pins the
// limiter's three chaos guarantees: shedding is priority-aware end to
// end (a portal-class connection is re-admitted and served while
// homepage-class connections get the 503 with the limiter's dynamic
// Retry-After), the per-level shed counters stay monotonic throughout,
// and the limit recovers after the storm so admission can never latch
// shut.
func TestChaosAdaptiveLimiterShedsByPriorityAndRecovers(t *testing.T) {
	dir, _ := chaosRoot(t)
	opts := options.COPSHTTP().
		WithOverloadControl(20, 5).
		WithHardening(10*time.Second, 5*time.Second, 1<<20)
	// portal marks the next classified connection high-priority; the
	// classifier runs on the raw conn before any bytes are read.
	var portal atomic.Bool
	srv, ln, addr := startChaosHTTP(t,
		copshttp.Config{
			DocRoot:        dir,
			Options:        &opts,
			ShedOnOverload: true,
			RetryAfter:     7 * time.Second, // the engaged limiter overrides it
			ShedPriority: func(net.Conn) events.Priority {
				if portal.Load() {
					return 0
				}
				return 1
			},
		},
		faultnet.Scenario{Seed: 41, MaxWritePerCall: 9},
	)
	lim := srv.Framework().Admission()
	if lim == nil {
		t.Fatal("overload control selected but Admission() is nil")
	}

	// Establish the no-load queue-wait baseline, exactly as a healthy
	// server's sampled submissions would.
	for i := 0; i < 32; i++ {
		lim.Observe(time.Millisecond)
	}

	// Park keep-alive connections so the in-flight count stays above the
	// limit once the storm drives it down.
	const held = 8
	for i := 0; i < held; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprint(c, "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
		if line, err := bufio.NewReader(c).ReadString('\n'); err != nil || !strings.Contains(line, "200") {
			t.Fatalf("held conn %d: %q err=%v", i, line, err)
		}
	}

	// The storm: congested queue-wait samples cut the limit
	// multiplicatively (rate-limited, so this takes a dozen-odd decrease
	// intervals) while the per-level shed counters must never go
	// backwards. The cadence matches the 1-in-16 sampling of a loaded
	// pipeline — flooding samples orders of magnitude faster would let
	// the baseline's slow upward creep absorb the congestion signal.
	prevShed := [2]uint64{lim.ShedCount(0), lim.ShedCount(1)}
	deadline := time.Now().Add(15 * time.Second)
	for lim.Limit() > held-2 {
		if time.Now().After(deadline) {
			t.Fatalf("limit stuck at %d after congested storm", lim.Limit())
		}
		lim.Observe(80 * time.Millisecond)
		for i, lvl := range []int{0, 1} {
			if n := lim.ShedCount(lvl); n < prevShed[i] {
				t.Fatalf("level-%d shed counter went backwards: %d -> %d", lvl, prevShed[i], n)
			} else {
				prevShed[i] = n
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !lim.Engaged() {
		t.Fatal("limit below max but limiter not engaged")
	}

	// A homepage-class connection is shed with the 503 fast path; the
	// Retry-After value is the limiter's backoff horizon, not the static
	// fallback. The shed reply races the RST a close-with-unread-request
	// provokes (the fast path never reads the doomed request), and the
	// clogged transport widens that race — so retry until the 503 bytes
	// land. Keep observing congestion so the recovery clock cannot
	// reopen admission mid-assertion.
	var resp []byte
	var err error
	shedBy := time.Now().Add(5 * time.Second)
	for {
		lim.Observe(80 * time.Millisecond)
		resp, _ = httpGet(t, addr, "/index.html", 3*time.Second)
		if bytes.Contains(resp, []byte(" 503 ")) {
			break
		}
		if time.Now().After(shedBy) {
			t.Fatalf("engaged limiter never shed a homepage-class conn: %.120q", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !bytes.Contains(resp, []byte("Retry-After: ")) {
		t.Fatalf("shed 503 missing Retry-After: %.200q", resp)
	}
	if lim.ShedCount(1) == 0 {
		t.Fatal("homepage-class shed not counted at level 1")
	}

	// A portal-class connection is re-admitted through the same overload
	// and fully served.
	portal.Store(true)
	lim.Observe(80 * time.Millisecond)
	resp, err = httpGet(t, addr, "/index.html", 3*time.Second)
	portal.Store(false)
	if err != nil || !bytes.Contains(resp, []byte(" 200 ")) {
		t.Fatalf("portal-class conn not re-admitted under shed: err=%v resp=%.120q", err, resp)
	}
	if snap := lim.Snapshot(); snap.Admitted[0] == 0 {
		t.Fatalf("portal re-admission not counted: %+v", snap)
	}

	// Post-storm: healthy samples grow the limit additively and service
	// resumes — the limiter never latches admission shut.
	for i := 0; i < 4096 && lim.Limit() <= held; i++ {
		lim.Observe(time.Millisecond)
	}
	if lim.Limit() <= held {
		t.Fatalf("limit did not recover past %d held conns: %d", held, lim.Limit())
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err = httpGet(t, addr, "/index.html", 3*time.Second)
		if err == nil && bytes.Contains(resp, []byte(" 200 ")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never resumed post-storm: err=%v resp=%.120q", err, resp)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ln.Stats().Accepted.Load() == 0 {
		t.Fatal("faultnet accepted nothing — chaos never saw traffic")
	}
}

// TestChaosPanickingHooksAreIsolated: a Handle hook that panics on one
// poisoned request and a Decode hook that panics on one poisoned byte
// sequence must each take down only their own connection.
func TestChaosPanickingHooksAreIsolated(t *testing.T) {
	res := trackResidue(t)
	srv, err := nserver.New(nserver.Config{
		Options: options.Options{
			DispatcherThreads:  1,
			SeparateThreadPool: true,
			EventThreads:       2,
			Codec:              true,
		},
		App: nserver.AppFuncs{Request: func(c *nserver.Conn, req any) {
			if req.(string) == "boom" {
				panic("poisoned request")
			}
			_ = c.Reply("ok:" + req.(string))
		}},
		Codec: panickyCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res.watch(srv)
	ln, err := faultnet.Listen("127.0.0.1:0", faultnet.Scenario{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	addr := ln.Addr().String()

	exchange := func(line string) (string, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		fmt.Fprint(conn, line+"\n")
		return bufio.NewReader(conn).ReadString('\n')
	}

	if _, err := exchange("boom"); err == nil {
		t.Fatal("panicking Handle kept its connection open")
	}
	if _, err := exchange("DECODE-PANIC"); err == nil {
		t.Fatal("panicking Decode kept its connection open")
	}
	got, err := exchange("healthy")
	if err != nil || got != "ok:healthy\n" {
		t.Fatalf("server unhealthy after hook panics: got=%q err=%v", got, err)
	}
}

// panickyCodec panics while decoding a poisoned line; everything else is
// the plain newline codec.
type panickyCodec struct{}

func (panickyCodec) Decode(buf []byte) (any, int, error) {
	if bytes.HasPrefix(buf, []byte("DECODE-PANIC")) {
		panic("poisoned bytes")
	}
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return string(buf[:i]), i + 1, nil
	}
	return nil, 0, nil
}

func (panickyCodec) Encode(reply any) ([]byte, error) {
	return append([]byte(reply.(string)), '\n'), nil
}

// TestChaosMetricsStayServiceable: the admin metrics plane must remain
// serviceable, and every exported counter monotonic, while the data plane
// is being torn apart by mid-stream RSTs and read stalls. The metrics
// listener is deliberately NOT behind faultnet — the point is that chaos
// on the serve pipeline cannot starve or corrupt the observability
// endpoint that operators are using to diagnose that very chaos.
func TestChaosMetricsStayServiceable(t *testing.T) {
	dir, _ := chaosRoot(t)
	opts := options.COPSHTTP().
		WithOverloadControl(20, 5).
		WithHardening(200*time.Millisecond, 500*time.Millisecond, 1<<20)
	opts.Profiling = true
	srv, ln, addr := startChaosHTTP(t,
		copshttp.Config{
			DocRoot:        dir,
			Options:        &opts,
			ShedOnOverload: true,
			RetryAfter:     time.Second,
		},
		faultnet.Scenario{
			Seed:            11,
			StallAfterBytes: 16, // every conn's read after the first request stalls
			StallDuration:   2 * time.Second,
			RSTAfterBytes:   24 << 10, // big.bin replies die mid-stream
		},
	)
	ms, err := metrics.NewServer("127.0.0.1:0", metrics.Config{
		Profile:  srv.Framework().Profile(),
		Cache:    srv.Framework().Cache(),
		Deferred: srv.Framework().Deferred,
		Shed:     srv.Shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })

	scrape := func() (map[string]float64, []byte) {
		t.Helper()
		raw, err := httpGet(t, ms.Addr().String(), "/metrics", 3*time.Second)
		if err != nil {
			t.Fatalf("metrics endpoint unreachable mid-chaos: %v", err)
		}
		if !bytes.Contains(raw, []byte(" 200 ")) {
			t.Fatalf("metrics endpoint unhealthy: %.120q", raw)
		}
		_, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
		if !ok {
			t.Fatalf("unframed metrics response: %.120q", raw)
		}
		return metrics.ParseCounters(string(body)), body
	}

	monotonic := []string{
		"nserver_connections_accepted_total",
		"nserver_requests_total",
		"nserver_sent_bytes_total",
		"nserver_read_bytes_total",
		"nserver_events_processed_total",
	}
	prev, _ := scrape()
	var body []byte
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			// Both may fail mid-stream — that is the chaos, not the assert.
			_, _ = httpGet(t, addr, "/big.bin", time.Second)
			_, _ = httpGet(t, addr, "/index.html", time.Second)
		}
		var cur map[string]float64
		cur, body = scrape()
		for _, k := range monotonic {
			if cur[k] < prev[k] {
				t.Fatalf("round %d: counter %s went backwards: %v -> %v", round, k, prev[k], cur[k])
			}
		}
		prev = cur
	}

	if prev["nserver_connections_accepted_total"] == 0 {
		t.Fatal("no connections observed — chaos traffic never reached the server")
	}
	if ln.Stats().Resets.Load() == 0 && ln.Stats().Stalls.Load() == 0 {
		t.Fatal("scenario injected no faults — test proves nothing")
	}
	// The per-stage histograms survived the chaos and render coherently.
	if !bytes.Contains(body, []byte("nserver_stage_duration_seconds_bucket")) {
		t.Fatalf("stage histogram series missing from /metrics:\n%s", body)
	}
	for _, stage := range []string{"read", "decode", "handle", "encode", "send"} {
		if !bytes.Contains(body, []byte(`stage="`+stage+`"`)) {
			t.Errorf("stage %q missing from histogram export", stage)
		}
	}
}

// TestChaosRSTMidStreamReapsConnection: the peer resets the transport
// partway through a streamed large-file body (the faultnet wrapper is not
// a *net.TCPConn, so this exercises the pooled-copy streaming path — the
// same chunk loop every non-TCP transport runs). The failure must stay on
// that connection: it is torn down promptly, active connections drain to
// zero, the streaming counters stay monotonic, and the next clean request
// is served.
func TestChaosRSTMidStreamReapsConnection(t *testing.T) {
	dir, big := chaosRoot(t)
	opts := options.COPSHTTP().
		WithHardening(time.Second, time.Second, 1<<20).
		WithLargeFiles(16 << 10) // 64 KiB big.bin streams
	opts.Profiling = true
	srv, ln, addr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts},
		faultnet.Scenario{Seed: 12, RSTAfterBytes: 8 << 10},
	)
	ms, err := metrics.NewServer("127.0.0.1:0", metrics.Config{
		Profile: srv.Framework().Profile(),
		Cache:   srv.Framework().Cache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	scrape := func() map[string]float64 {
		t.Helper()
		raw, err := httpGet(t, ms.Addr().String(), "/metrics", 3*time.Second)
		if err != nil {
			t.Fatalf("metrics endpoint unreachable mid-chaos: %v", err)
		}
		_, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
		if !ok {
			t.Fatalf("unframed metrics response: %.120q", raw)
		}
		return metrics.ParseCounters(string(body))
	}

	prev := scrape()
	for round := 0; round < 4; round++ {
		// The streamed reply dies at the 8 KiB RST budget, far short of
		// the 64 KiB body — that is the chaos, not the assert.
		resp, rerr := httpGet(t, addr, "/big.bin", 3*time.Second)
		if rerr == nil && len(resp) > len(big) {
			t.Fatal("full streamed body survived an 8 KiB RST budget — no fault injected")
		}
		cur := scrape()
		for _, k := range []string{
			"nserver_streamed_bytes_total",
			"nserver_stream_fallback_chunks_total",
			"nserver_sent_bytes_total",
			"nserver_connections_accepted_total",
		} {
			if cur[k] < prev[k] {
				t.Fatalf("round %d: counter %s went backwards: %v -> %v", round, k, prev[k], cur[k])
			}
		}
		prev = cur
	}
	if ln.Stats().Resets.Load() == 0 {
		t.Fatal("scenario injected no reset — test proves nothing")
	}
	if prev["nserver_streamed_bytes_total"] == 0 {
		t.Fatal("nothing streamed — the large-file path never engaged")
	}
	if prev["nserver_stream_fallback_chunks_total"] == 0 {
		t.Fatal("no fallback chunks — wrapped transport unexpectedly took sendfile")
	}

	// Every reset connection was reaped; nothing wedged in the chunk loop.
	deadline := time.Now().Add(3 * time.Second)
	for srv.Framework().ActiveConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections wedged after mid-stream RST", srv.Framework().ActiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A small exchange fits under a fresh connection's byte budget.
	resp, err := httpGet(t, addr, "/index.html", 3*time.Second)
	if err != nil || !bytes.Contains(resp, []byte(" 200 ")) {
		t.Fatalf("server unhealthy after mid-stream RST: err=%v resp=%.60q", err, resp)
	}
}

// TestChaosShardedRuntimeSurvivesFaults runs the full chaos scenario —
// mid-stream RSTs plus read stalls on a fixed seed — against the sharded
// runtime: four shards behind one faultnet listener, whose one acceptor
// fans connections out round-robin, work stealing active
// between the shard queues. The aggregated counters must stay monotonic
// while faults land on every shard, every shard must reap its torn
// connections, and the per-shard profiles must still sum to the
// aggregate afterwards — a steal may move an event between shards, but
// it must never lose or double-count a request.
func TestChaosShardedRuntimeSurvivesFaults(t *testing.T) {
	dir, _ := chaosRoot(t)
	opts := options.COPSHTTP().
		WithHardening(200*time.Millisecond, 500*time.Millisecond, 1<<20).
		WithShards(4)
	opts.Profiling = true
	srv, ln, addr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts},
		faultnet.Scenario{
			Seed:            23,
			StallAfterBytes: 16, // keep-alive reads stall after the first request
			StallDuration:   2 * time.Second,
			RSTAfterBytes:   24 << 10, // big.bin replies die mid-stream
		},
	)
	fw := srv.Framework()
	if got := fw.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}

	ms, err := metrics.NewServer("127.0.0.1:0", metrics.Config{
		Profile: fw.Profile(),
		Cache:   fw.Cache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	scrape := func() map[string]float64 {
		t.Helper()
		raw, err := httpGet(t, ms.Addr().String(), "/metrics", 3*time.Second)
		if err != nil {
			t.Fatalf("metrics endpoint unreachable mid-chaos: %v", err)
		}
		_, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
		if !ok {
			t.Fatalf("unframed metrics response: %.120q", raw)
		}
		return metrics.ParseCounters(string(body))
	}

	monotonic := []string{
		"nserver_connections_accepted_total",
		"nserver_requests_total",
		"nserver_sent_bytes_total",
		"nserver_read_bytes_total",
		"nserver_events_processed_total",
	}
	prev := scrape()
	for round := 0; round < 4; round++ {
		// Round-robin placement spreads these connections across all four
		// shards; the faults follow them there.
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = httpGet(t, addr, "/big.bin", time.Second)
				_, _ = httpGet(t, addr, "/index.html", time.Second)
			}()
		}
		wg.Wait()
		cur := scrape()
		for _, k := range monotonic {
			if cur[k] < prev[k] {
				t.Fatalf("round %d: aggregated counter %s went backwards: %v -> %v", round, k, prev[k], cur[k])
			}
		}
		prev = cur
	}

	if prev["nserver_connections_accepted_total"] == 0 {
		t.Fatal("no connections observed — chaos traffic never reached the server")
	}
	if ln.Stats().Resets.Load() == 0 && ln.Stats().Stalls.Load() == 0 {
		t.Fatal("scenario injected no faults — test proves nothing")
	}

	// Every shard reaps its own torn connections: each per-shard count
	// must drain to zero, not just the total (a wedged shard could hide
	// behind an idle one if only the sum were checked).
	deadline := time.Now().Add(3 * time.Second)
	for {
		wedged := 0
		for i := 0; i < fw.Shards(); i++ {
			wedged += fw.ShardConns(i)
		}
		if wedged == 0 {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < fw.Shards(); i++ {
				if n := fw.ShardConns(i); n > 0 {
					t.Errorf("shard %d: %d connections wedged after chaos", i, n)
				}
			}
			t.FailNow()
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Per-shard accounting is intact: shard profiles sum to the aggregate
	// and the traffic demonstrably spread over the shards.
	snap := fw.Profile().Snapshot()
	var perShard uint64
	shardsServed := 0
	for _, ss := range fw.Profile().ShardSnapshots() {
		perShard += ss.RequestsServed
		if ss.RequestsServed > 0 {
			shardsServed++
		}
	}
	if perShard != snap.RequestsServed {
		t.Errorf("per-shard RequestsServed sum %d != aggregate %d", perShard, snap.RequestsServed)
	}
	if shardsServed < 2 {
		t.Errorf("only %d shard(s) served requests — round-robin placement not spreading load", shardsServed)
	}

	// The sharded server is healthy after the storm.
	resp, err := httpGet(t, addr, "/index.html", 3*time.Second)
	if err != nil || !bytes.Contains(resp, []byte(" 200 ")) {
		t.Fatalf("sharded server unhealthy after chaos: err=%v resp=%.60q", err, resp)
	}
}

// TestChaosShardsLeaveNoResidue drives raw-TCP chaos against four
// shards: the transports expose their descriptors, so every connection
// reads through the lease-on-readiness path. A fixed-seed schedule mixes
// clean exchanges, mid-read hard resets (SO_LINGER 0) and silent stalls
// closed by the read deadline. Afterwards every shard's connection table
// is empty and the counters stayed monotonic throughout; after Shutdown,
// the residue check finds the process's open descriptors and goroutines
// back to their baseline.
func TestChaosShardsLeaveNoResidue(t *testing.T) {
	dir, _ := chaosRoot(t)
	res := trackResidue(t)
	const shards = 4
	opts := options.COPSHTTP().
		WithHardening(200*time.Millisecond, 500*time.Millisecond, 1<<20).
		WithShards(shards)
	opts.Profiling = true
	srv, err := copshttp.New(copshttp.Config{DocRoot: dir, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	res.watch(srv.Framework())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Framework().Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	addr := ln.Addr().String()
	fw := srv.Framework()

	ms, err := metrics.NewServer("127.0.0.1:0", metrics.Config{Profile: fw.Profile()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	scrape := func() map[string]float64 {
		t.Helper()
		raw, err := httpGet(t, ms.Addr().String(), "/metrics", 3*time.Second)
		if err != nil {
			t.Fatalf("metrics endpoint unreachable mid-chaos: %v", err)
		}
		_, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
		if !ok {
			t.Fatalf("unframed metrics response: %.120q", raw)
		}
		return metrics.ParseCounters(string(body))
	}
	prev := scrape()

	// The fault schedule is a fixed-seed permutation: which connection
	// gets a clean exchange, a mid-read RST or a silent stall replays
	// identically run to run.
	rng := rand.New(rand.NewSource(42))
	monotonic := []string{"nserver_connections_accepted_total", "nserver_requests_total"}
	var stalled []net.Conn
	for round := 0; round < 3; round++ {
		const conns = 8
		peers := make([]net.Conn, 0, conns)
		for i := 0; i < conns; i++ {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			peers = append(peers, c)
		}
		// Round-robin placement puts two conns on each shard; wait for all
		// of them to attach before injecting faults.
		deadline := time.Now().Add(3 * time.Second)
		for fw.ActiveConns() < conns {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: only %d/%d conns attached", round, fw.ActiveConns(), conns)
			}
			time.Sleep(2 * time.Millisecond)
		}
		for i, c := range peers {
			switch rng.Intn(3) {
			case 0: // clean keep-alive exchange, then client close
				c.SetDeadline(time.Now().Add(3 * time.Second))
				fmt.Fprint(c, "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
				if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
					t.Errorf("round %d conn %d: clean exchange failed: %v", round, i, err)
				}
				c.Close()
			case 1: // hard reset mid-request: half a request, then RST
				fmt.Fprint(c, "GET /index.h")
				if tc, ok := c.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
				c.Close()
			case 2: // silent stall: the 200ms read deadline closes it
				fmt.Fprint(c, "GET /stalled")
				stalled = append(stalled, c)
			}
		}
		// Every conn leaves its shard's table — the stalled third takes
		// until the 200ms ReadTimeout fires.
		deadline = time.Now().Add(5 * time.Second)
		for fw.ActiveConns() > 0 {
			if time.Now().After(deadline) {
				for i := 0; i < fw.Shards(); i++ {
					t.Logf("shard %d: conns=%d", i, fw.ShardConns(i))
				}
				t.Fatalf("round %d: conn tables not drained: active=%d", round, fw.ActiveConns())
			}
			time.Sleep(5 * time.Millisecond)
		}
		cur := scrape()
		for _, k := range monotonic {
			if cur[k] < prev[k] {
				t.Fatalf("round %d: counter %s went backwards: %v -> %v", round, k, prev[k], cur[k])
			}
		}
		prev = cur
	}
	for i := 0; i < fw.Shards(); i++ {
		if n := fw.ShardConns(i); n != 0 {
			t.Errorf("shard %d: %d conns left in its table", i, n)
		}
	}
	for _, c := range stalled {
		c.Close()
	}
	resp, err := httpGet(t, addr, "/index.html", 3*time.Second)
	if err != nil || !bytes.Contains(resp, []byte(" 200 ")) {
		t.Fatalf("sharded server unhealthy after chaos: err=%v resp=%.60q", err, resp)
	}
}

// stripDateLines removes "Date:" header lines from a raw HTTP byte
// stream so two servers' renderings of the same exchange compare equal
// across a second boundary.
func stripDateLines(raw []byte) []byte {
	lines := bytes.Split(raw, []byte("\r\n"))
	out := make([]byte, 0, len(raw))
	for _, ln := range lines {
		if bytes.HasPrefix(ln, []byte("Date: ")) {
			continue
		}
		out = append(out, ln...)
		out = append(out, '\r', '\n')
	}
	return out
}

// TestChaosFragmentedWritesWireEquality: the short-write audit's pin.
// The same pipelined exchange runs against a clean server and against
// servers whose every underlying Write is capped to a handful of bytes
// (faultnet's partial-write schedule fragments each writev into many
// short kernel writes). A send path that treats a short write without
// error as success would drop the unsent tail somewhere in the pipeline;
// wire equality across fragment sizes proves every byte is carried.
func TestChaosFragmentedWritesWireEquality(t *testing.T) {
	dir, _ := chaosRoot(t)
	exchange := func(addr string) []byte {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		// Pipelined keep-alive pair, a ranged read, then a closing 1.0
		// request so ReadAll frames the full conversation.
		fmt.Fprintf(conn, "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"+
			"GET /big.bin HTTP/1.1\r\nHost: x\r\nRange: bytes=100-1123\r\n\r\n"+
			"GET /big.bin HTTP/1.1\r\nHost: x\r\n\r\n"+
			"GET /index.html HTTP/1.0\r\n\r\n")
		raw, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	opts := options.COPSHTTP().WithHardening(0, 10*time.Second, 0)
	_, _, cleanAddr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts}, faultnet.Scenario{})
	want := stripDateLines(exchange(cleanAddr))
	if len(want) < 64<<10 {
		t.Fatalf("clean exchange suspiciously small: %d bytes", len(want))
	}
	for _, frag := range []int{1, 3, 7} {
		opts := options.COPSHTTP().WithHardening(0, 10*time.Second, 0)
		_, _, addr := startChaosHTTP(t,
			copshttp.Config{DocRoot: dir, Options: &opts},
			faultnet.Scenario{Seed: int64(frag), MaxWritePerCall: frag})
		got := stripDateLines(exchange(addr))
		if !bytes.Equal(got, want) {
			t.Errorf("frag=%d: wire image diverged (got %d bytes, want %d)",
				frag, len(got), len(want))
		}
	}
}

// TestChaosSlowReaderBlockingPath: the per-flush write deadline on the
// goroutine path. A reader that keeps draining a multi-megabyte buffered
// reply — slower than WriteTimeout per reply but faster than WriteTimeout
// per chunk — must receive every byte (the deadline re-arms per 256 KiB
// flush chunk, not once per reply), while a fully stalled reader is torn
// down within roughly one chunk's deadline.
func TestChaosSlowReaderBlockingPath(t *testing.T) {
	const bodyLen = 16 << 20
	dir := t.TempDir()
	big := bytes.Repeat([]byte("0123456789abcdef"), bodyLen/16)
	if err := os.WriteFile(filepath.Join(dir, "huge.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	// No LargeFileThreshold: the 6 MiB body is served buffered, through
	// the blocking sink's vectored write — the path whose deadline used to
	// cover the whole reply.
	opts := options.COPSHTTP().WithHardening(0, 300*time.Millisecond, 0)
	opts.CacheCapacity = 32 << 20
	_, _, addr := startChaosHTTP(t,
		copshttp.Config{DocRoot: dir, Options: &opts}, faultnet.Scenario{})

	// Progressing reader: ~25 MB/s, so the whole reply takes ~0.7 s —
	// over twice the write deadline — yet every chunk makes progress.
	// The pace must clear Linux's writer wake-up threshold (about half
	// the autotuned send buffer per deadline window): the deadline
	// enforces a minimum drain rate, not merely liveness.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(512 << 10)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(conn, "GET /huge.bin HTTP/1.0\r\n\r\n")
	var total int
	buf := make([]byte, 256<<10)
	for {
		n, err := conn.Read(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("progressing reader torn down after %d bytes: %v", total, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if total < bodyLen {
		t.Fatalf("progressing reader got %d bytes, want >= %d", total, bodyLen)
	}

	// Stalled reader: never reads; the per-chunk deadline must tear the
	// connection down long before the reply completes.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(64 << 10)
	}
	fmt.Fprintf(stalled, "GET /huge.bin HTTP/1.0\r\n\r\n")
	time.Sleep(1500 * time.Millisecond) // several deadline windows, no reads
	stalled.SetDeadline(time.Now().Add(10 * time.Second))
	got, _ := io.ReadAll(stalled)
	if len(got) >= len(big) {
		t.Fatalf("stalled reader received the whole %d-byte reply; deadline never fired", len(got))
	}
	// The server is healthy after tearing the stalled connection down.
	resp, err := httpGet(t, addr, "/huge.bin", 30*time.Second)
	if err != nil || !bytes.Contains(resp, []byte(" 200 ")) {
		t.Fatalf("server unhealthy after stalled-reader teardown: err=%v resp=%.60q", err, resp)
	}
}

// TestChaosSlowReader: the parked-write path's slow-reader defense. A
// stalled reader of a streamed multi-megabyte file parks the residual,
// frees the worker, and is torn down once the write pump's blocking
// write misses its per-chunk WriteTimeout; a trickling-but-progressing
// reader survives far past WriteTimeout and receives every byte.
func TestChaosSlowReader(t *testing.T) {
	const fileLen = 16 << 20
	dir := t.TempDir()
	res := trackResidue(t)
	big := bytes.Repeat([]byte("0123456789abcdef"), fileLen/16)
	if err := os.WriteFile(filepath.Join(dir, "huge.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options.COPSHTTP().
		WithHardening(0, 300*time.Millisecond, 0).
		WithLargeFiles(1 << 20)
	opts.Profiling = true
	srv, err := copshttp.New(copshttp.Config{DocRoot: dir, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	res.watch(srv.Framework())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Framework().Start(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	fw := srv.Framework()
	addr := ln.Addr().String()

	// Stalled reader: request the stream, read nothing.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(64 << 10)
	}
	fmt.Fprintf(stalled, "GET /huge.bin HTTP/1.0\r\n\r\n")
	// Attach runs on a worker after the accept: until it has, an empty
	// conn table would read as "already reaped".
	deadline := time.Now().Add(5 * time.Second)
	for fw.ActiveConns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled reader never attached")
		}
		time.Sleep(time.Millisecond)
	}
	for fw.ParkedWrites() == 0 && fw.ActiveConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream to a stalled reader never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The pump's write deadline tears the stalled queue down within the
	// WriteTimeout budget; the fd and the queue accounting both drain.
	deadline = time.Now().Add(5 * time.Second)
	for fw.ActiveConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled reader never reaped: parked_writes=%d queued=%d",
				fw.ParkedWrites(), fw.OutboundQueuedBytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fw.ParkedWrites() != 0 || fw.OutboundQueuedBytes() != 0 {
		t.Fatalf("queue accounting leaked after reap: conns=%d bytes=%d",
			fw.ParkedWrites(), fw.OutboundQueuedBytes())
	}

	// Trickling reader: drains ~25 MB/s — the full stream takes ~0.7 s,
	// over twice WriteTimeout — and must still complete: each of the
	// pump's 1 MiB sendfile chunks finishes well inside its deadline. As
	// on the blocking path, the pace must clear the kernel's writability
	// threshold (roughly half the send buffer per window).
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if tc, ok := slow.(*net.TCPConn); ok {
		tc.SetReadBuffer(512 << 10)
	}
	slow.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(slow, "GET /huge.bin HTTP/1.0\r\n\r\n")
	var total int
	buf := make([]byte, 256<<10)
	for {
		n, err := slow.Read(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("progressing reader torn down after %d bytes: %v", total, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if total < fileLen {
		t.Fatalf("progressing reader got %d bytes, want >= %d", total, fileLen)
	}
}
