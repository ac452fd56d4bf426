// Package faultnet is a deterministic fault-injection layer for real
// sockets: a net.Listener / net.Conn wrapper that perturbs traffic
// according to a seeded Scenario. It is the testing counterpart of
// internal/simnet — where simnet models a network inside the discrete
// event simulator, faultnet breaks a *real* transport underneath a live
// server, so the chaos suite can prove that every defense the serve
// pipeline grew (read/write deadlines, the request-assembly bound, decode
// panic isolation, the balancer's circuit breaker, 503 load shedding)
// actually holds on the wire.
//
// Determinism: every random decision is drawn from a rand.Rand seeded
// from Scenario.Seed plus the accept index of the connection, so a test
// that fails under seed 7 replays byte-for-byte under seed 7. No fault
// decision reads the clock or global rand state.
//
// The wrapper honors read/write deadlines across injected sleeps: a
// stall that would overrun the peer-set deadline returns a net.Error
// with Timeout() == true at the deadline instead, exactly as a kernel
// socket would, which is what lets deadline-based defenses be tested
// through it.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Scenario configures which faults a Listener injects and how often.
// The zero value injects nothing (a transparent wrapper). Probabilities
// are in [0,1] and are evaluated per read/write call with the seeded
// generator.
type Scenario struct {
	// Seed fixes the random sequence; two listeners with equal Scenarios
	// inject identical fault schedules.
	Seed int64

	// AcceptDelay sleeps before delivering each accepted connection to
	// the server. It does not slow the client's connect: the kernel
	// completes the handshake before Accept returns, so the client's dial
	// returns at once and only its first reply waits. Under one accept
	// loop, connections arriving faster than the delay queue in the
	// listen backlog, and a dial hangs only once that backlog is full.
	AcceptDelay time.Duration
	// RefuseEvery, when > 0, hard-closes every Nth accepted connection
	// immediately (RST before any byte moves) — a connect-time refusal.
	RefuseEvery int

	// ReadLatency sleeps before each Read returns data.
	ReadLatency time.Duration
	// WriteLatency sleeps before each Write moves bytes.
	WriteLatency time.Duration

	// MaxWritePerCall caps how many bytes one underlying Write transfers;
	// larger writes complete in paced fragments (a clogged peer window).
	// The call still writes everything unless a deadline expires first.
	MaxWritePerCall int

	// StallAfterBytes, when > 0, freezes reads once that many bytes have
	// been read from the connection: the next Read blocks for
	// StallDuration (slowloris from the server's point of view).
	StallAfterBytes int64
	// StallDuration is how long a stalled read blocks. Zero means 1s.
	StallDuration time.Duration

	// RSTAfterBytes, when > 0, aborts the connection with a hard close
	// after that many total bytes (read + written) have moved.
	RSTAfterBytes int64

	// CorruptEvery, when > 0, flips one bit in every Nth non-empty read
	// chunk (malformed peer bytes reaching the decoder).
	CorruptEvery int
}

// Stats counts the faults a Listener actually injected (for assertions).
type Stats struct {
	Accepted  atomic.Int64
	Refused   atomic.Int64
	Resets    atomic.Int64
	Stalls    atomic.Int64
	Corrupted atomic.Int64
}

// Listener wraps an inner listener and applies the Scenario to every
// accepted connection.
type Listener struct {
	inner    net.Listener
	scenario Scenario
	stats    Stats
	accepts  atomic.Int64
}

// Wrap returns a fault-injecting listener around inner.
func Wrap(inner net.Listener, s Scenario) *Listener {
	return &Listener{inner: inner, scenario: s}
}

// Listen opens a TCP listener on addr wrapped with the scenario.
func Listen(addr string, s Scenario) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Wrap(ln, s), nil
}

// Stats exposes the injection counters.
func (l *Listener) Stats() *Stats { return &l.stats }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Close closes the inner listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Accept waits for a connection, applies accept-time faults, and wraps
// the transport in a fault-injecting Conn.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		nc, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		idx := l.accepts.Add(1)
		if l.scenario.AcceptDelay > 0 {
			time.Sleep(l.scenario.AcceptDelay)
		}
		if re := l.scenario.RefuseEvery; re > 0 && idx%int64(re) == 0 {
			l.stats.Refused.Add(1)
			hardClose(nc)
			continue
		}
		l.stats.Accepted.Add(1)
		return &Conn{
			Conn:     nc,
			scenario: l.scenario,
			stats:    &l.stats,
			rng:      rand.New(rand.NewSource(l.scenario.Seed + idx)),
		}, nil
	}
}

// hardClose aborts a TCP connection with an RST instead of a FIN.
func hardClose(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}

// errReset is returned after an injected mid-stream abort.
var errReset = errors.New("faultnet: connection reset by scenario")

// timeoutError satisfies net.Error with Timeout() == true, mirroring the
// error a kernel socket returns when a deadline expires mid-operation.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Conn applies per-connection faults around an inner transport. All
// random draws come from its private seeded generator, serialized by mu,
// so concurrent reads and writes stay race-free and replayable.
type Conn struct {
	net.Conn
	scenario Scenario
	stats    *Stats
	mu       sync.Mutex
	rng      *rand.Rand

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	stalled      atomic.Bool
	reset        atomic.Bool
	readChunks   atomic.Int64

	dlMu          sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time
}

// SetDeadline records the deadline for injected sleeps and forwards it.
func (c *Conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline records the read deadline and forwards it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline records the write deadline and forwards it.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.writeDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// CloseWrite half-closes the inner transport when it supports that, so
// a wrapped TCP connection can still put a FIN behind its last write.
func (c *Conn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return errors.ErrUnsupported
}

// sleepRespectingDeadline sleeps d but wakes at the deadline (if any),
// returning a timeout error when the deadline cut the sleep short.
func (c *Conn) sleepRespectingDeadline(d time.Duration, read bool) error {
	c.dlMu.Lock()
	dl := c.writeDeadline
	if read {
		dl = c.readDeadline
	}
	c.dlMu.Unlock()
	if !dl.IsZero() {
		remain := time.Until(dl)
		if remain <= 0 {
			return timeoutError{}
		}
		if remain < d {
			time.Sleep(remain)
			return timeoutError{}
		}
	}
	time.Sleep(d)
	return nil
}

// maybeReset enforces the RSTAfterBytes budget; it returns true after
// aborting the connection.
func (c *Conn) maybeReset() bool {
	lim := c.scenario.RSTAfterBytes
	if lim <= 0 {
		return false
	}
	if c.bytesRead.Load()+c.bytesWritten.Load() < lim {
		return false
	}
	if c.reset.CompareAndSwap(false, true) {
		c.stats.Resets.Add(1)
		hardClose(c.Conn)
	}
	return true
}

// Read applies read-side faults: stall, latency, corruption, reset.
func (c *Conn) Read(p []byte) (int, error) {
	if c.reset.Load() {
		return 0, errReset
	}
	if lim := c.scenario.StallAfterBytes; lim > 0 && c.bytesRead.Load() >= lim &&
		c.stalled.CompareAndSwap(false, true) {
		c.stats.Stalls.Add(1)
		stall := c.scenario.StallDuration
		if stall <= 0 {
			stall = time.Second
		}
		if err := c.sleepRespectingDeadline(stall, true); err != nil {
			return 0, err
		}
	}
	if c.scenario.ReadLatency > 0 {
		if err := c.sleepRespectingDeadline(c.scenario.ReadLatency, true); err != nil {
			return 0, err
		}
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.bytesRead.Add(int64(n))
		if ce := c.scenario.CorruptEvery; ce > 0 {
			if chunk := c.readChunks.Add(1); chunk%int64(ce) == 0 {
				c.mu.Lock()
				bit := c.rng.Intn(n * 8)
				c.mu.Unlock()
				p[bit/8] ^= 1 << (bit % 8)
				c.stats.Corrupted.Add(1)
			}
		}
		if c.maybeReset() {
			return n, errReset
		}
	}
	return n, err
}

// Write applies write-side faults: latency, fragmentation, reset.
func (c *Conn) Write(p []byte) (int, error) {
	if c.reset.Load() {
		return 0, errReset
	}
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	total := 0
	for total < len(p) {
		if c.scenario.WriteLatency > 0 {
			if err := c.sleepRespectingDeadline(c.scenario.WriteLatency, false); err != nil {
				return total, err
			}
		}
		chunk := p[total:]
		if max := c.scenario.MaxWritePerCall; max > 0 && len(chunk) > max {
			chunk = chunk[:max]
		}
		n, err := c.Conn.Write(chunk)
		total += n
		c.bytesWritten.Add(int64(n))
		if err != nil {
			return total, err
		}
		if c.maybeReset() {
			return total, errReset
		}
	}
	return total, nil
}
