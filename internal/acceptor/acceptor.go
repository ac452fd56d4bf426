// Package acceptor implements the Acceptor-Connector pattern (Schmidt
// 1997) for the N-Server: connection establishment is decoupled from data
// transfer. The Acceptor owns the listening endpoint and emits each new
// connection as an AcceptReady event through the reactor (Reactor.Emit:
// straight into the Event Processor's queue when there is one); the
// Connector initiates outbound connections and delivers the result as a
// Completion Event carrying an Asynchronous Completion Token. The server's
// Acceptor Event Handler then wraps the raw transport in a Communicator
// component (see internal/nserver).
//
// The Acceptor is also the enforcement point for option O9's overload
// control: before accepting it consults the accept gate; while the gate is
// closed, "new connection requests are postponed" — they wait in the
// listen backlog exactly as the paper describes — and it applies the
// trivial mechanism of bounding simultaneous connections.
package acceptor

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/profiling"
	"repro/internal/reactor"
)

// Gate is the overload controller hook consulted before each accept.
type Gate interface {
	AcceptAllowed() bool
}

// PriorityGate is an optional Gate extension for priority-aware load
// shedding (the adaptive admission limiter implements it). When a gate
// refuses admission on the shed path but the MaxConns bound still has
// room, the acceptor hands the raw connection to AdmitOverloaded: a true
// return re-admits it into the normal attach path (high-priority traffic
// keeps flowing through overload), false sheds it. The gate classifies
// the connection itself — it sees the conn before any handler is
// attached, so classification must come from transport facts (peer
// address) rather than request contents.
type PriorityGate interface {
	Gate
	AdmitOverloaded(net.Conn) bool
}

// Config configures an Acceptor.
type Config struct {
	// Listener is the bound listening socket. Required.
	Listener net.Listener
	// Reactor routes the AcceptReady events (Reactor.Emit) to the
	// handler registered on the acceptor's Handle. Required.
	Reactor *reactor.Reactor
	// Gate, when non-nil, postpones accepting while it reports false
	// (option O9's watermark mechanism).
	Gate Gate
	// MaxConns, when > 0, bounds simultaneous connections (option O9's
	// trivial mechanism), compared against the acceptor's own live count
	// (see Live): the server reports each teardown with ConnClosed.
	MaxConns int
	// Shed, when non-nil, switches overload handling from postponing to
	// load shedding: connections arriving while the gate is closed (or
	// the MaxConns bound is hit) are accepted and handed to Shed — which
	// must close them — instead of waiting in the listen backlog. This
	// turns saturation into fast, explicit refusals (a 503 in COPS-HTTP)
	// rather than unbounded client-side queueing.
	Shed func(net.Conn)
	// Profile counts accepted connections (nil when O11 is off).
	Profile *profiling.Profile
	// Trace receives internal events in debug mode.
	Trace *logging.Trace
}

// Acceptor runs the accept loop for one listening endpoint.
type Acceptor struct {
	ln       net.Listener
	r        *reactor.Reactor
	handle   reactor.Handle
	gate     Gate
	pgate    PriorityGate
	maxConns int
	shed     func(net.Conn)
	profile  *profiling.Profile
	trace    *logging.Trace
	done     chan struct{}
	closed   atomic.Bool
	deferred atomic.Uint64
	live     atomic.Int64
}

// New validates cfg and creates an Acceptor. Call Run (typically in its
// own goroutine) to start accepting.
func New(cfg Config) (*Acceptor, error) {
	if cfg.Listener == nil {
		return nil, errors.New("acceptor: listener required")
	}
	if cfg.Reactor == nil {
		return nil, errors.New("acceptor: reactor required")
	}
	pgate, _ := cfg.Gate.(PriorityGate)
	return &Acceptor{
		ln:       cfg.Listener,
		r:        cfg.Reactor,
		handle:   cfg.Reactor.NewHandle(),
		gate:     cfg.Gate,
		pgate:    pgate,
		maxConns: cfg.MaxConns,
		shed:     cfg.Shed,
		profile:  cfg.Profile,
		trace:    cfg.Trace,
		done:     make(chan struct{}),
	}, nil
}

// Handle returns the reactor handle on which AcceptReady events are
// emitted.
func (a *Acceptor) Handle() reactor.Handle { return a.handle }

// Addr returns the listening address.
func (a *Acceptor) Addr() net.Addr { return a.ln.Addr() }

// Deferred returns how many accepts the gate or the connection bound held
// up: without a Shed hook each postponed accept counts once, however many
// gate polls it waits; with one, each shed connection counts once.
func (a *Acceptor) Deferred() uint64 { return a.deferred.Load() }

// Run accepts connections until Close, emitting one AcceptReady event per
// connection with the accepted net.Conn as Data. Without a Shed hook an
// inadmissible acceptor postpones (connections wait in the listen
// backlog, the paper's O9 behavior); with one, it keeps accepting and
// sheds the postponed connections instead.
func (a *Acceptor) Run() {
	for {
		if a.shed == nil && !a.admissible() {
			return
		}
		conn, err := a.ln.Accept()
		if err != nil {
			if a.closed.Load() {
				return
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			a.trace.Record("acceptor", "accept failed: %v", err)
			return
		}
		if a.shed != nil && !a.admissibleNow() {
			// Priority-aware shedding: the gate may re-admit a
			// high-priority connection as long as the hard connection
			// bound still has room.
			if a.pgate != nil && a.boundOK() && a.pgate.AdmitOverloaded(conn) {
				a.trace.Record("acceptor", "re-admitting %s (priority)", conn.RemoteAddr())
			} else {
				a.deferred.Add(1)
				a.profile.Add(profiling.ConnectionsRefused, 1)
				a.trace.Record("acceptor", "shedding %s (overload)", conn.RemoteAddr())
				a.shed(conn)
				continue
			}
		}
		a.live.Add(1)
		a.profile.Add(profiling.ConnectionsAccepted, 1)
		a.trace.Record("acceptor", "accepted %s", conn.RemoteAddr())
		if err := a.r.Emit(reactor.Ready{
			Type:   reactor.AcceptReady,
			Handle: a.handle,
			Data:   conn,
		}); err != nil {
			conn.Close()
			return
		}
	}
}

// gatePoll is how often a postponed acceptor re-checks the gate.
const gatePoll = time.Millisecond

// admissible blocks while overload control postpones accepting, counting
// the postponed accept once; it returns false when the acceptor is closed.
func (a *Acceptor) admissible() bool {
	for postponed := false; ; postponed = true {
		if a.closed.Load() {
			return false
		}
		if a.admissibleNow() {
			return true
		}
		if !postponed {
			a.deferred.Add(1)
		}
		select {
		case <-a.done:
			return false
		case <-time.After(gatePoll):
		}
	}
}

// admissibleNow evaluates the gate and the connection bound once, without
// waiting.
func (a *Acceptor) admissibleNow() bool {
	gateOK := a.gate == nil || a.gate.AcceptAllowed()
	return gateOK && a.boundOK()
}

// boundOK evaluates the hard MaxConns bound alone. Priority re-admission
// may override the gate but never this bound.
func (a *Acceptor) boundOK() bool {
	return a.maxConns <= 0 || a.Live() < a.maxConns
}

// ConnAttached counts a connection the server attached without
// accepting it (one the application dialed or accepted itself) in the
// live count, whatever MaxConns says.
func (a *Acceptor) ConnAttached() {
	a.live.Add(1)
	a.profile.Add(profiling.ConnectionsAccepted, 1)
}

// ConnClosed informs the acceptor's live counter that one accepted or
// attached connection has ended. Servers using MaxConns must call it once
// per connection teardown.
func (a *Acceptor) ConnClosed() {
	a.live.Add(-1)
}

// Live returns the acceptor's accept-time counter, the count MaxConns
// bounds: it is incremented the moment a connection is admitted and
// decremented by ConnClosed. Admission gates meter against this count
// rather than the shard registries — a registry only learns about a
// connection once its AcceptReady event is processed, so during a
// synchronized dial burst the registry lags far behind what the acceptor
// has already let in.
func (a *Acceptor) Live() int { return int(a.live.Load()) }

// Close stops the accept loop and closes the listener. Idempotent.
func (a *Acceptor) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(a.done)
	return a.ln.Close()
}

// Connector initiates outbound connections, delivering results as
// Completion Events so the application's Connector Event Handler processes
// them like any other ready event.
type Connector struct {
	r       *reactor.Reactor
	timeout time.Duration
	trace   *logging.Trace
}

// NewConnector creates a Connector dialing with the given timeout
// (zero means no timeout).
func NewConnector(r *reactor.Reactor, timeout time.Duration, trace *logging.Trace) *Connector {
	return &Connector{r: r, timeout: timeout, trace: trace}
}

// Connect dials network/addr asynchronously. The returned token is echoed
// in the CompletionReady event whose Completion.Result is the net.Conn
// (nil on error) and whose Done is done, the continuation the reactor's
// completion handler runs. When the reactor no longer takes events, the
// dialed connection is closed and done runs on the dialing goroutine
// with the refusal, so what the continuation holds is still released.
func (c *Connector) Connect(network, addr string, state any, done func(events.Token, any, error)) events.Token {
	tok := events.NewToken(state)
	go func() {
		d := net.Dialer{Timeout: c.timeout}
		conn, err := d.Dial(network, addr)
		c.trace.Record("connector", "dial %s %s: err=%v", network, addr, err)
		comp := &events.Completion{Token: tok, Result: conn, Err: err, Done: done}
		if eerr := c.r.Emit(reactor.Ready{
			Type: reactor.CompletionReady,
			Data: comp,
		}); eerr != nil {
			if conn != nil {
				conn.Close()
			}
			comp.Result, comp.Err = nil, eerr
			comp.Process()
		}
	}()
	return tok
}
