// Package cluster implements the paper's proposed extension: "to support
// the generation of distributed N-servers that will serve from a network
// of workstations". A Balancer is the cluster's front end: it accepts
// client connections and forwards each — whole, at connection
// granularity, so the per-connection request pipeline still runs on
// exactly one N-Server — to one of the backend servers. The application's
// hook methods are identical whether the server is generated for one
// shared-memory machine or for the cluster, which is the property the
// paper's conclusion calls out (after Tan et al., PPoPP 2003).
//
// The Balancer is a plain forwarder, not an N-Server: one accept loop
// hands each client connection to its own goroutine, which picks a
// backend through a pluggable Strategy (round-robin or
// least-connections) and splices bytes both ways.
//
// Backend failure handling is a per-backend circuit breaker: consecutive
// dial failures open the circuit for a capped, jittered exponential
// backoff; after the backoff one half-open trial (a forwarded connection
// or an active health probe, when ProbeInterval enables probing) decides
// whether the circuit closes again or reopens with a longer backoff.
// Each accepted client connection spends at most a bounded retry budget
// of distinct backends before it is dropped, and Shutdown drains
// in-flight forwards for at most DrainTimeout before force-closing them.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/logging"
	"repro/internal/profiling"
)

// Strategy selects the backend for a new connection.
type Strategy int

const (
	// RoundRobin cycles through healthy backends.
	RoundRobin Strategy = iota
	// LeastConnections picks the healthy backend with the fewest live
	// forwarded connections.
	LeastConnections
)

func (s Strategy) String() string {
	if s == LeastConnections {
		return "least-connections"
	}
	return "round-robin"
}

// Config configures a Balancer.
type Config struct {
	// Backends are the addresses of the N-Server instances. Required.
	Backends []string
	// Strategy selects backend placement. Default RoundRobin.
	Strategy Strategy
	// DialTimeout bounds backend connection establishment. Default 2s.
	DialTimeout time.Duration
	// CoolDown is the base backoff of the circuit breaker: the first
	// time a backend's circuit opens it is skipped for roughly this long
	// (jittered), doubling on each consecutive reopen. Default 1s.
	CoolDown time.Duration
	// BackoffMax caps the exponential backoff. Default 30s.
	BackoffMax time.Duration
	// FailureThreshold is how many consecutive dial failures open a
	// backend's circuit. Default 1 (open on the first failure).
	FailureThreshold int
	// ProbeInterval, when > 0, enables active health probes: a prober
	// goroutine re-dials open-circuit backends whose backoff has expired
	// and closes the circuit on success, so recovery does not depend on
	// sacrificing client connections as half-open trials.
	ProbeInterval time.Duration
	// RetryBudget caps how many distinct backends one accepted client
	// may try before being dropped. Default (and max) len(Backends).
	RetryBudget int
	// DrainTimeout bounds Shutdown: after closing the listener it waits
	// this long for in-flight forwards to finish, then force-closes
	// their connections. Default 5s.
	DrainTimeout time.Duration
	// Hedge enables hedged backend connects: when a dial has not
	// completed within the hedge delay — the p95 of recent successful
	// dial latencies, clamped between 1ms and half the dial timeout — a
	// second attempt is launched to the next-healthiest backend and the
	// first connection wins; the loser is canceled. A canceled dial is
	// never charged to the loser's circuit breaker. Hedging is capped by
	// a budget (about 10% of primary dials plus a small burst) so a
	// uniformly slow fleet cannot double its own dial load.
	Hedge bool
	// HedgeDelay overrides the p95-derived hedge delay (tests, or a
	// known latency SLO). Zero derives the delay from observation.
	HedgeDelay time.Duration
	// Seed fixes the backoff jitter sequence for deterministic tests.
	// Zero seeds from CoolDown (still deterministic per config).
	Seed int64
	// Profile counts accepted/forwarded connections (nil disables).
	Profile *profiling.Profile
	// Trace receives internal events (nil disables).
	Trace *logging.Trace
}

// Balancer distributes client connections across backend N-Servers.
type Balancer struct {
	strategy      Strategy
	dialTimeout   time.Duration
	backoffBase   time.Duration
	backoffMax    time.Duration
	failThreshold int
	probeInterval time.Duration
	retryBudget   int
	drainTimeout  time.Duration
	profile       *profiling.Profile
	trace         *logging.Trace

	backends []*backend
	next     atomic.Uint64

	// Hedged-dial state: dialLat records successful dial latencies (the
	// p95 source of the hedge delay); primaries counts first attempts
	// and hedgeIssued the extra hedge dials launched, which together
	// implement the hedge budget. hedgeWon counts hedges that beat their
	// primary, hedgeCanceled the losing attempts discarded after a
	// winner emerged, and hedgeDenied the hedge opportunities the budget
	// refused.
	hedge      bool
	hedgeDelay time.Duration
	dialLat    profiling.Histogram
	// dialFn performs one backend dial; it honors ctx cancellation (the
	// hedge race cancels the loser through it). Tests substitute it.
	dialFn        func(ctx context.Context, addr string) (net.Conn, error)
	primaries     atomic.Uint64
	hedgeIssued   atomic.Uint64
	hedgeWon      atomic.Uint64
	hedgeCanceled atomic.Uint64
	hedgeDenied   atomic.Uint64

	// rng draws backoff jitter; mu serializes it.
	rngMu sync.Mutex
	rng   *rand.Rand

	// inflight tracks the transports of live forwards so Shutdown can
	// force-close stragglers once DrainTimeout expires.
	connMu   sync.Mutex
	inflight map[net.Conn]struct{}

	ln         net.Listener
	wg         sync.WaitGroup
	proberDone chan struct{}
	closed     atomic.Bool
}

// Circuit breaker states of one backend.
const (
	stateClosed   int32 = iota // healthy: take traffic
	stateOpen                  // failing: skip until openUntil
	stateHalfOpen              // one trial in flight decides the state
)

type backend struct {
	addr string
	// live counts forwarded connections currently open.
	live atomic.Int64
	// forwarded counts total connections placed here.
	forwarded atomic.Uint64
	// mu serializes the compound breaker transitions (backendFailed and
	// backendHealthy each write fails, openUntil and state as one
	// logical step). Without it a probe success racing a concurrent
	// forward failure could interleave — the success's state swap
	// landing between the failure's openUntil and state stores — and
	// leave the circuit open with fails already reset to zero. Readers
	// stay lock-free on the atomics; only transitions take the lock.
	mu sync.Mutex
	// state is the circuit breaker state (stateClosed/Open/HalfOpen).
	state atomic.Int32
	// fails counts consecutive dial failures (reset on success); it
	// drives both the open threshold and the exponential backoff.
	fails atomic.Int32
	// openUntil is the unix-nano timestamp at which an open circuit
	// becomes eligible for a half-open trial.
	openUntil atomic.Int64
}

// ErrNoBackends is returned by New for an empty backend list.
var ErrNoBackends = errors.New("cluster: at least one backend required")

// errAllDown reports that every backend is cooling down or unreachable.
var errAllDown = errors.New("cluster: no healthy backend")

// New validates cfg and creates a Balancer. Call Start to begin serving.
func New(cfg Config) (*Balancer, error) {
	if len(cfg.Backends) == 0 {
		return nil, ErrNoBackends
	}
	dt := cfg.DialTimeout
	if dt <= 0 {
		dt = 2 * time.Second
	}
	cd := cfg.CoolDown
	if cd <= 0 {
		cd = time.Second
	}
	bmax := cfg.BackoffMax
	if bmax <= 0 {
		bmax = 30 * time.Second
	}
	if bmax < cd {
		bmax = cd
	}
	thresh := cfg.FailureThreshold
	if thresh <= 0 {
		thresh = 1
	}
	budget := cfg.RetryBudget
	if budget <= 0 || budget > len(cfg.Backends) {
		budget = len(cfg.Backends)
	}
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = 5 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cd)
	}
	b := &Balancer{
		strategy:      cfg.Strategy,
		dialTimeout:   dt,
		backoffBase:   cd,
		backoffMax:    bmax,
		failThreshold: thresh,
		probeInterval: cfg.ProbeInterval,
		retryBudget:   budget,
		drainTimeout:  drain,
		hedge:         cfg.Hedge,
		hedgeDelay:    cfg.HedgeDelay,
		rng:           rand.New(rand.NewSource(seed)),
		inflight:      make(map[net.Conn]struct{}),
		proberDone:    make(chan struct{}),
		profile:       cfg.Profile,
		trace:         cfg.Trace,
	}
	b.dialFn = func(ctx context.Context, addr string) (net.Conn, error) {
		d := net.Dialer{Timeout: b.dialTimeout}
		return d.DialContext(ctx, "tcp", addr)
	}
	for _, addr := range cfg.Backends {
		if addr == "" {
			return nil, errors.New("cluster: empty backend address")
		}
		b.backends = append(b.backends, &backend{addr: addr})
	}
	return b, nil
}

// Start begins accepting from ln and forwarding. It returns immediately.
func (b *Balancer) Start(ln net.Listener) {
	b.ln = ln
	b.wg.Add(1)
	go b.acceptLoop(ln)
	if b.probeInterval > 0 {
		b.wg.Add(1)
		go b.probeLoop()
	}
}

// ListenAndServe binds addr and starts the balancer.
func (b *Balancer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	b.Start(ln)
	return nil
}

// Addr returns the front-end address once serving.
func (b *Balancer) Addr() net.Addr {
	if b.ln == nil {
		return nil
	}
	return b.ln.Addr()
}

// Shutdown stops accepting and drains: in-flight forwards get up to
// DrainTimeout to finish their current copies, after which their
// transports are force-closed so no splice goroutine can pin the
// balancer (or a client) indefinitely.
func (b *Balancer) Shutdown() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	if b.ln != nil {
		b.ln.Close()
	}
	close(b.proberDone)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(b.drainTimeout):
		b.connMu.Lock()
		n := len(b.inflight)
		for c := range b.inflight {
			c.Close()
		}
		b.connMu.Unlock()
		b.trace.Record("cluster", "drain timeout: force-closed %d connections", n)
		<-done
	}
}

// trackConn registers a live transport for drain accounting.
func (b *Balancer) trackConn(c net.Conn) {
	b.connMu.Lock()
	b.inflight[c] = struct{}{}
	b.connMu.Unlock()
}

// untrackConn removes a finished transport.
func (b *Balancer) untrackConn(c net.Conn) {
	b.connMu.Lock()
	delete(b.inflight, c)
	b.connMu.Unlock()
}

// Forwarded returns total connections placed per backend address.
func (b *Balancer) Forwarded() map[string]uint64 {
	out := make(map[string]uint64, len(b.backends))
	for _, be := range b.backends {
		out[be.addr] = be.forwarded.Load()
	}
	return out
}

// Live returns currently open forwarded connections per backend address.
func (b *Balancer) Live() map[string]int64 {
	out := make(map[string]int64, len(b.backends))
	for _, be := range b.backends {
		out[be.addr] = be.live.Load()
	}
	return out
}

// BackendState is one backend's externally visible health snapshot, as
// exported by the metrics endpoint.
type BackendState struct {
	// Addr is the backend address.
	Addr string
	// State is the circuit-breaker state: "closed" (healthy), "open"
	// (cooling down) or "half-open" (one trial in flight).
	State string
	// Fails is the consecutive dial-failure count.
	Fails int
	// Live is the number of currently open forwarded connections.
	Live int64
	// Forwarded is the total connections placed on this backend.
	Forwarded uint64
	// OpenUntil is when an open circuit becomes trial-eligible (zero
	// unless the circuit is open).
	OpenUntil time.Time
}

// stateName renders a circuit-breaker state constant.
func stateName(s int32) string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	}
	return "closed"
}

// BackendStates snapshots every backend's circuit-breaker state in
// configuration order. Fields of one element are read without a common
// lock, so a backend transitioning concurrently may show, e.g., a closed
// State beside a non-zero Fails; each field is individually current.
func (b *Balancer) BackendStates() []BackendState {
	out := make([]BackendState, len(b.backends))
	for i, be := range b.backends {
		st := be.state.Load()
		bs := BackendState{
			Addr:      be.addr,
			State:     stateName(st),
			Fails:     int(be.fails.Load()),
			Live:      be.live.Load(),
			Forwarded: be.forwarded.Load(),
		}
		if st == stateOpen {
			bs.OpenUntil = time.Unix(0, be.openUntil.Load())
		}
		out[i] = bs
	}
	return out
}

func (b *Balancer) acceptLoop(ln net.Listener) {
	defer b.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		b.profile.ConnectionAccepted()
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.forward(conn)
		}()
	}
}

// forward places one client connection on a backend and splices bytes in
// both directions until either side closes.
func (b *Balancer) forward(client net.Conn) {
	b.trackConn(client)
	defer b.untrackConn(client)
	defer client.Close()
	be, upstream, err := b.connect()
	if err != nil {
		b.trace.Record("cluster", "dropping %s: %v", client.RemoteAddr(), err)
		b.profile.ConnectionRefused()
		return
	}
	b.trackConn(upstream)
	defer b.untrackConn(upstream)
	defer upstream.Close()
	be.live.Add(1)
	defer be.live.Add(-1)
	b.trace.Record("cluster", "forwarding %s -> %s", client.RemoteAddr(), be.addr)

	done := make(chan struct{}, 2)
	splice := func(dst, src net.Conn, count func(int)) {
		// io.CopyBuffer with a pooled 32 KiB buffer instead of a
		// per-transfer allocation; on TCP-to-TCP forwards the ReaderFrom
		// fast path moves the bytes in the kernel and skips the buffer
		// entirely.
		lease := bufpool.Get(32 << 10)
		n, _ := io.CopyBuffer(dst, src, lease.Bytes())
		lease.Release()
		count(int(n))
		// Half-close so the peer's pending read completes.
		if tc, ok := dst.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}
	go splice(upstream, client, b.profile.BytesRead)
	go splice(client, upstream, b.profile.BytesSent)
	<-done
	<-done
	b.profile.ConnectionClosed()
}

// connect picks backends under the strategy until one dials, spending at
// most the retry budget. Attempts are deduplicated: each backend is
// dialed at most once per accepted client, so a single bad backend
// (repeatedly re-eligible after its backoff expires) cannot exhaust the
// attempt loop the way the old cool-down logic allowed. Hedged dials
// consume budget entries like any other attempt.
func (b *Balancer) connect() (*backend, net.Conn, error) {
	tried := make(map[*backend]bool, b.retryBudget)
	for len(tried) < b.retryBudget {
		be := b.pick(tried)
		if be == nil {
			break
		}
		tried[be] = true
		win, conn := b.dialMaybeHedged(be, tried)
		if conn == nil {
			continue
		}
		win.forwarded.Add(1)
		return win, conn, nil
	}
	return nil, nil, errAllDown
}

// dialMaybeHedged dials primary, optionally racing a hedge attempt, and
// returns the winning backend and connection (nil when every attempt
// failed; breaker accounting has already happened).
func (b *Balancer) dialMaybeHedged(primary *backend, tried map[*backend]bool) (*backend, net.Conn) {
	b.primaries.Add(1)
	if !b.hedge {
		return primary, b.dialOne(primary)
	}
	return b.dialHedged(primary, tried)
}

// dialOne is the plain (non-hedged) dial: it settles the breaker and
// feeds the dial-latency histogram that the hedge delay derives from.
func (b *Balancer) dialOne(be *backend) net.Conn {
	start := time.Now()
	conn, err := b.dialFn(context.Background(), be.addr)
	if err != nil {
		b.backendFailed(be, err)
		return nil
	}
	b.dialLat.Observe(time.Since(start))
	b.backendHealthy(be)
	return conn
}

// dialResult is one settled attempt of a hedged dial race.
type dialResult struct {
	be   *backend
	conn net.Conn
	err  error
	took time.Duration
}

// dialHedged races the primary dial against one hedge attempt launched
// after the hedge delay. The first successful connection wins and the
// other attempt is canceled through its dial context; every launched
// attempt is settled here — a genuine error charges the breaker, a
// canceled loser does not (the backend was never shown to be unhealthy),
// and a loser that connected anyway is closed.
func (b *Balancer) dialHedged(primary *backend, tried map[*backend]bool) (*backend, net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan dialResult, 2)
	launch := func(be *backend) {
		start := time.Now()
		conn, err := b.dialFn(ctx, be.addr)
		ch <- dialResult{be: be, conn: conn, err: err, took: time.Since(start)}
	}
	go launch(primary)
	timer := time.NewTimer(b.currentHedgeDelay())
	defer timer.Stop()

	var hedgeBe *backend
	var winner dialResult
	outstanding := 1
	for outstanding > 0 {
		select {
		case <-timer.C:
			// The primary is slow: launch the hedge if the budget and
			// the retry budget allow and another backend is eligible.
			if !b.hedgeAllowed() {
				b.hedgeDenied.Add(1)
				continue
			}
			if len(tried) >= b.retryBudget {
				continue
			}
			if hedgeBe = b.pick(tried); hedgeBe == nil {
				continue
			}
			tried[hedgeBe] = true
			b.hedgeIssued.Add(1)
			b.trace.Record("cluster", "hedging %s with %s", primary.addr, hedgeBe.addr)
			outstanding++
			go launch(hedgeBe)
		case r := <-ch:
			outstanding--
			switch {
			case r.err == nil && winner.conn == nil:
				winner = r
				b.dialLat.Observe(r.took)
				b.backendHealthy(r.be)
				if r.be == hedgeBe {
					b.hedgeWon.Add(1)
				}
				// Abort the other attempt; the race stays open only to
				// settle it.
				cancel()
			case r.err == nil:
				// The loser connected after the winner: discard it.
				r.conn.Close()
				b.backendHealthy(r.be)
				b.hedgeCanceled.Add(1)
			case errors.Is(r.err, context.Canceled):
				// Canceled by the winner — says nothing about the
				// backend's health, so the breaker is not charged.
				b.hedgeCanceled.Add(1)
			default:
				b.backendFailed(r.be, r.err)
			}
		}
	}
	return winner.be, winner.conn
}

// hedgeAllowed enforces the hedge budget: hedges may run at about 10% of
// primary dials, plus a burst allowance so the first slow dials of a
// quiet balancer can still hedge.
const hedgeBurst = 16

func (b *Balancer) hedgeAllowed() bool {
	return b.hedgeIssued.Load() < b.primaries.Load()/10+hedgeBurst
}

// currentHedgeDelay returns the configured fixed delay, or the p95 of
// observed successful dial latencies clamped between 1ms and half the
// dial timeout (an unobserved balancer hedges conservatively late).
func (b *Balancer) currentHedgeDelay() time.Duration {
	if b.hedgeDelay > 0 {
		return b.hedgeDelay
	}
	lo, hi := time.Millisecond, b.dialTimeout/2
	if hi < lo {
		hi = lo
	}
	d := b.dialLat.Snapshot().Quantile(0.95)
	if d == 0 {
		return hi
	}
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	return d
}

// HedgeSnapshot is the hedged-dial counter set (exported on /metrics).
type HedgeSnapshot struct {
	// Issued counts hedge attempts launched.
	Issued uint64 `json:"issued"`
	// Won counts hedges whose connection beat the primary's.
	Won uint64 `json:"won"`
	// Canceled counts losing attempts discarded after a winner emerged.
	Canceled uint64 `json:"canceled"`
	// BudgetDenied counts hedge opportunities the budget refused.
	BudgetDenied uint64 `json:"budget_denied"`
}

// HedgeStats snapshots the hedged-dial counters. Each counter is
// individually monotonic.
func (b *Balancer) HedgeStats() HedgeSnapshot {
	return HedgeSnapshot{
		Issued:       b.hedgeIssued.Load(),
		Won:          b.hedgeWon.Load(),
		Canceled:     b.hedgeCanceled.Load(),
		BudgetDenied: b.hedgeDenied.Load(),
	}
}

// pick selects the next untried backend under the strategy. Closed
// circuits are preferred; when none remain, one expired open circuit is
// claimed for a half-open trial (the CAS guarantees a single concurrent
// trial per backend). Returns nil when nothing is eligible.
func (b *Balancer) pick(tried map[*backend]bool) *backend {
	healthy := make([]*backend, 0, len(b.backends))
	for _, be := range b.backends {
		if !tried[be] && be.state.Load() == stateClosed {
			healthy = append(healthy, be)
		}
	}
	if len(healthy) == 0 {
		now := time.Now().UnixNano()
		for _, be := range b.backends {
			if !tried[be] && be.state.Load() == stateOpen && be.openUntil.Load() <= now &&
				be.state.CompareAndSwap(stateOpen, stateHalfOpen) {
				b.trace.Record("cluster", "half-open trial for %s", be.addr)
				return be
			}
		}
		return nil
	}
	switch b.strategy {
	case LeastConnections:
		best := healthy[0]
		for _, be := range healthy[1:] {
			if be.live.Load() < best.live.Load() {
				best = be
			}
		}
		return best
	default:
		return healthy[int(b.next.Add(1)-1)%len(healthy)]
	}
}

// backendFailed records a dial failure: once the consecutive-failure
// threshold is reached the circuit opens for a capped exponential
// backoff with jitter (doubling per consecutive failure past the
// threshold), so a flapping backend is retried politely instead of on a
// fixed cadence.
// The transition is one critical section under the backend's mutex, so
// a concurrent backendHealthy (probe success) cannot interleave between
// the failure-count, deadline and state writes.
func (b *Balancer) backendFailed(be *backend, err error) {
	be.mu.Lock()
	defer be.mu.Unlock()
	fails := int(be.fails.Add(1))
	if fails < b.failThreshold {
		b.trace.Record("cluster", "backend %s failed (%d/%d): %v", be.addr, fails, b.failThreshold, err)
		return
	}
	shift := fails - b.failThreshold
	if shift > 20 {
		shift = 20
	}
	backoff := b.backoffBase << shift
	if backoff > b.backoffMax || backoff <= 0 {
		backoff = b.backoffMax
	}
	backoff = b.jitter(backoff)
	// Order matters: publish the deadline before flipping the state so a
	// concurrent pick that observes stateOpen reads a current openUntil.
	be.openUntil.Store(time.Now().Add(backoff).UnixNano())
	be.state.Store(stateOpen)
	b.trace.Record("cluster", "circuit open for %s (%d consecutive failures, backoff %v): %v",
		be.addr, fails, backoff, err)
}

// backendHealthy closes the circuit after a successful dial or probe.
// It takes the backend's transition mutex so the reset of fails and the
// state change form one atomic step with respect to backendFailed.
func (b *Balancer) backendHealthy(be *backend) {
	be.mu.Lock()
	defer be.mu.Unlock()
	be.fails.Store(0)
	if be.state.Swap(stateClosed) != stateClosed {
		b.trace.Record("cluster", "circuit closed for %s", be.addr)
	}
}

// jitter applies equal jitter: half the backoff fixed, half uniform
// random, drawn from the balancer's seeded generator.
func (b *Balancer) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	b.rngMu.Lock()
	j := time.Duration(b.rng.Int63n(int64(d/2) + 1))
	b.rngMu.Unlock()
	return d/2 + j
}

// probeLoop actively re-dials open-circuit backends whose backoff has
// expired and closes the circuit on success, so recovery never has to
// sacrifice a client connection as the half-open trial.
func (b *Balancer) probeLoop() {
	defer b.wg.Done()
	ticker := time.NewTicker(b.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-b.proberDone:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for _, be := range b.backends {
			if be.state.Load() != stateOpen || be.openUntil.Load() > now {
				continue
			}
			if !be.state.CompareAndSwap(stateOpen, stateHalfOpen) {
				continue
			}
			conn, err := net.DialTimeout("tcp", be.addr, b.dialTimeout)
			if err != nil {
				b.backendFailed(be, fmt.Errorf("probe: %w", err))
				continue
			}
			conn.Close()
			b.trace.Record("cluster", "probe revived %s", be.addr)
			b.backendHealthy(be)
		}
	}
}

// String describes the balancer for logs.
func (b *Balancer) String() string {
	return fmt.Sprintf("cluster balancer (%s, %d backends)", b.strategy, len(b.backends))
}
