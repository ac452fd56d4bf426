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
// Backend failure handling is one per-backend circuit breaker with one
// recovery path. A failed dial opens the backend's circuit, and clients
// are placed only on closed circuits. Opening the circuit arms exactly
// one re-dial of that backend for when its jittered backoff expires: a
// successful re-dial closes the circuit, and a failed one reopens it
// with the doubled backoff (capped at 30s) and arms the next re-dial. So
// a restarted backend rejoins within its backoff plus one dial whether
// or not client traffic reaches it. Each accepted client tries every
// closed backend at most once before it is dropped, and Shutdown stops
// pending re-dials and drains in-flight forwards for at most
// DrainTimeout before force-closing them.
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
	// DialTimeout bounds backend connection establishment, for client
	// forwards and re-dials alike. Default 2s.
	DialTimeout time.Duration
	// CoolDown is the base backoff of the circuit breaker: the first
	// time a backend's circuit opens, its re-dial is due after roughly
	// this long (jittered), doubling on each failed re-dial up to
	// backoffMax. Default 1s.
	CoolDown time.Duration
	// DrainTimeout bounds Shutdown: after closing the listener it waits
	// this long for in-flight forwards to finish, then force-closes
	// their connections. Default 5s.
	DrainTimeout time.Duration
	// Seed fixes the backoff jitter sequence for deterministic tests.
	// Zero seeds from CoolDown (still deterministic per config).
	Seed int64
	// Profile counts accepted/forwarded connections (nil disables).
	Profile *profiling.Profile
}

// backoffMax caps the circuit breaker's exponential backoff (raised to
// CoolDown when that is longer).
const backoffMax = 30 * time.Second

// Balancer distributes client connections across backend N-Servers.
type Balancer struct {
	strategy     Strategy
	dialer       net.Dialer
	backoffBase  time.Duration
	drainTimeout time.Duration
	profile      *profiling.Profile

	backends []*backend
	next     atomic.Uint64

	// rng draws backoff jitter; mu serializes it.
	rngMu sync.Mutex
	rng   *rand.Rand

	// inflight tracks the transports of live forwards so Shutdown can
	// force-close stragglers once DrainTimeout expires.
	connMu   sync.Mutex
	inflight map[net.Conn]struct{}

	ln net.Listener
	// wg counts the accept loop, every forward and every armed or
	// running re-dial.
	wg sync.WaitGroup
	// stop is canceled by Shutdown and aborts a re-dial mid-dial.
	stop   context.Context
	cancel context.CancelFunc
	closed atomic.Bool
}

type backend struct {
	addr string
	// live counts forwarded connections currently open.
	live atomic.Int64
	// forwarded counts total connections placed here.
	forwarded atomic.Uint64
	// open is the circuit state pick reads lock-free; only transitions
	// under mu write it.
	open atomic.Bool
	// mu serializes the breaker transitions and guards the fields below,
	// so a re-dial, a client dial and Shutdown settling the same backend
	// at once leave it in one of their serial orders.
	mu sync.Mutex
	// fails counts consecutive dial failures (reset on success); it
	// drives the exponential backoff.
	fails int
	// openUntil is when the open circuit's re-dial is due.
	openUntil time.Time
	// redial is the armed re-dial of an open circuit (nil once it fires,
	// and while the circuit is closed).
	redial *time.Timer
	// gen advances on every transition, so a re-dial whose circuit was
	// closed or re-armed while it dialed settles nothing.
	gen uint64
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
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = 5 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cd)
	}
	b := &Balancer{
		strategy:     cfg.Strategy,
		dialer:       net.Dialer{Timeout: dt},
		backoffBase:  cd,
		drainTimeout: drain,
		rng:          rand.New(rand.NewSource(seed)),
		inflight:     make(map[net.Conn]struct{}),
		profile:      cfg.Profile,
	}
	b.stop, b.cancel = context.WithCancel(context.Background())
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

// Shutdown stops accepting, stops pending re-dials and drains: in-flight
// forwards get up to DrainTimeout to finish their current copies, after
// which their transports are force-closed so no splice goroutine can pin
// the balancer (or a client) indefinitely.
func (b *Balancer) Shutdown() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	if b.ln != nil {
		b.ln.Close()
	}
	b.cancel()
	// Every re-dial is armed under its backend's mutex after a check of
	// closed, so once each mutex has been taken here none can be armed
	// again, and the Wait below starts after the last wg.Add.
	for _, be := range b.backends {
		be.mu.Lock()
		b.disarmLocked(be)
		be.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(b.drainTimeout):
		b.connMu.Lock()
		for c := range b.inflight {
			c.Close()
		}
		b.connMu.Unlock()
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
	// State is the circuit-breaker state: "closed" (taking traffic) or
	// "open" (skipped until its re-dial succeeds).
	State string
	// Fails is the consecutive dial-failure count.
	Fails int
	// Live is the number of currently open forwarded connections.
	Live int64
	// Forwarded is the total connections placed on this backend.
	Forwarded uint64
	// OpenUntil is when an open circuit's re-dial is due (zero unless
	// the circuit is open).
	OpenUntil time.Time
}

// BackendStates snapshots every backend's circuit-breaker state in
// configuration order. Each element is read under its backend's
// transition lock, so State, Fails and OpenUntil agree with each other.
func (b *Balancer) BackendStates() []BackendState {
	out := make([]BackendState, len(b.backends))
	for i, be := range b.backends {
		bs := BackendState{
			Addr:      be.addr,
			State:     "closed",
			Live:      be.live.Load(),
			Forwarded: be.forwarded.Load(),
		}
		be.mu.Lock()
		bs.Fails = be.fails
		if be.open.Load() {
			bs.State, bs.OpenUntil = "open", be.openUntil
		}
		be.mu.Unlock()
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
		b.profile.Add(profiling.ConnectionsAccepted, 1)
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
		b.profile.Add(profiling.ConnectionsRefused, 1)
		return
	}
	b.trackConn(upstream)
	defer b.untrackConn(upstream)
	defer upstream.Close()
	be.live.Add(1)
	defer be.live.Add(-1)

	done := make(chan struct{}, 2)
	splice := func(dst, src net.Conn, counter profiling.Counter) {
		// io.CopyBuffer with a pooled 32 KiB buffer instead of a
		// per-transfer allocation; on TCP-to-TCP forwards the ReaderFrom
		// fast path moves the bytes in the kernel and skips the buffer
		// entirely.
		lease := bufpool.Get(32 << 10)
		n, _ := io.CopyBuffer(dst, src, lease.Bytes())
		lease.Release()
		b.profile.Add(counter, int(n))
		// Half-close so the peer's pending read completes.
		if tc, ok := dst.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}
	go splice(upstream, client, profiling.BytesRead)
	go splice(client, upstream, profiling.BytesSent)
	<-done
	<-done
	b.profile.Add(profiling.ConnectionsClosed, 1)
}

// connect picks closed backends under the strategy until one dials.
// Each backend is dialed at most once per accepted client, so one client
// tries at most every backend before it is dropped.
func (b *Balancer) connect() (*backend, net.Conn, error) {
	tried := make(map[*backend]bool, len(b.backends))
	for {
		be := b.pick(tried)
		if be == nil {
			return nil, nil, errAllDown
		}
		tried[be] = true
		conn, err := b.dialer.Dial("tcp", be.addr)
		if err != nil {
			b.backendFailed(be)
			continue
		}
		b.backendHealthy(be)
		be.forwarded.Add(1)
		return be, conn, nil
	}
}

// pick selects the next untried closed backend under the strategy, or
// nil when none is left.
func (b *Balancer) pick(tried map[*backend]bool) *backend {
	healthy := make([]*backend, 0, len(b.backends))
	for _, be := range b.backends {
		if !tried[be] && !be.open.Load() {
			healthy = append(healthy, be)
		}
	}
	if len(healthy) == 0 {
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

// backendFailed records a failed client dial. The first failure opens a
// closed circuit; a failure on a circuit that is already open (a dial
// that started before it opened) changes nothing, so one outage arms
// exactly one re-dial.
func (b *Balancer) backendFailed(be *backend) {
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.open.Load() {
		return
	}
	b.openLocked(be)
}

// backendHealthy closes the circuit after a successful client dial and
// stops its pending re-dial.
func (b *Balancer) backendHealthy(be *backend) {
	be.mu.Lock()
	defer be.mu.Unlock()
	b.closeLocked(be)
}

// openLocked opens be's circuit for a capped exponential backoff with
// jitter, doubling per consecutive failure, and arms the re-dial that
// ends it unless the balancer is shutting down. be.mu must be held.
func (b *Balancer) openLocked(be *backend) {
	be.fails++
	backoff := b.backoffBase << min(be.fails-1, 20)
	if limit := max(backoffMax, b.backoffBase); backoff > limit || backoff <= 0 {
		backoff = limit
	}
	backoff = b.jitter(backoff)
	be.openUntil = time.Now().Add(backoff)
	be.open.Store(true)
	be.gen++
	if !b.closed.Load() {
		gen := be.gen
		b.wg.Add(1)
		be.redial = time.AfterFunc(backoff, func() { b.redial(be, gen) })
	}
}

// closeLocked closes be's circuit and clears its failure count.
// be.mu must be held.
func (b *Balancer) closeLocked(be *backend) {
	be.fails = 0
	if be.open.Swap(false) {
		b.disarmLocked(be)
	}
}

// disarmLocked stops be's pending re-dial, if any, and retires its
// generation so a re-dial already running settles nothing. be.mu must be
// held.
func (b *Balancer) disarmLocked(be *backend) {
	if be.redial != nil && be.redial.Stop() {
		b.wg.Done()
	}
	be.redial = nil
	be.gen++
}

// redial is the armed re-dial of an open circuit: success closes the
// circuit, failure reopens it with the doubled backoff and arms the next
// re-dial. A re-dial whose generation was retired while it dialed (the
// circuit closed, or Shutdown began) only discards its connection.
func (b *Balancer) redial(be *backend, gen uint64) {
	defer b.wg.Done()
	conn, err := b.dialer.DialContext(b.stop, "tcp", be.addr)
	if conn != nil {
		conn.Close()
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.gen != gen {
		return
	}
	be.redial = nil
	if err != nil {
		b.openLocked(be)
		return
	}
	b.closeLocked(be)
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

// String describes the balancer for logs.
func (b *Balancer) String() string {
	return fmt.Sprintf("cluster balancer (%s, %d backends)", b.strategy, len(b.backends))
}
