package reactor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/eventproc"
	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/profiling"
)

// Config configures a Reactor.
type Config struct {
	// Source is the event source chain. Nil means a new BasicSource.
	Source Source
	// DispatcherThreads is option O1: 1 or a positive even number 2N.
	DispatcherThreads int
	// Processor, when non-nil, is the Event Processor (option O2 = Yes):
	// Emit routes each event straight into its queue, and its workers
	// run the handlers. When nil, Emit queues on the Source and the
	// dispatcher threads invoke handlers inline (the classic Reactor).
	Processor *eventproc.Processor
	// Profile receives dispatch counts (nil when O11 is off).
	Profile *profiling.Profile
	// Trace receives internal events in debug mode.
	Trace *logging.Trace
}

// Reactor binds the Event Source, the handler registry and the Event
// Dispatcher threads together.
type Reactor struct {
	source    Source
	processor *eventproc.Processor
	profile   *profiling.Profile
	trace     *logging.Trace
	threads   int

	mu        sync.RWMutex
	byHandle  map[Handle]Handler
	byType    map[EventType]Handler
	nextH     atomic.Uint64
	wg        sync.WaitGroup
	started   atomic.Bool
	stopOnce  sync.Once
	dropCount atomic.Uint64
}

// New validates cfg and creates a Reactor. Call Run to start dispatching.
func New(cfg Config) (*Reactor, error) {
	n := cfg.DispatcherThreads
	if n != 1 && (n < 2 || n%2 != 0) {
		return nil, fmt.Errorf("reactor: dispatcher threads must be 1 or 2N (got %d)", n)
	}
	src := cfg.Source
	if src == nil {
		src = NewBasicSource("events")
	}
	return &Reactor{
		source:    src,
		processor: cfg.Processor,
		profile:   cfg.Profile,
		trace:     cfg.Trace,
		threads:   n,
		byHandle:  make(map[Handle]Handler),
		byType:    make(map[EventType]Handler),
	}, nil
}

// Source returns the reactor's event source chain. Events pushed here
// (a TimerSource decorator's timers, say) reach their handlers through
// the dispatcher threads; producers that know their event is ready call
// Emit instead.
func (r *Reactor) Source() Source { return r.source }

// Emit delivers one ready event. With an Event Processor it routes on
// the caller's goroutine, so the event takes one queue hop: the
// processor's. Without one it queues on the Source for the dispatcher
// threads. Either way the handler never runs on the caller's goroutine,
// so an emitter may hold its own locks. Once the reactor is stopped Emit
// fails, except that an event with no handler is only counted in Dropped.
func (r *Reactor) Emit(rd Ready) error {
	if r.processor == nil {
		return r.source.Emit(rd)
	}
	return r.route(rd)
}

// NewHandle allocates a fresh handle for a connection, listener or other
// endpoint.
func (r *Reactor) NewHandle() Handle {
	return Handle(r.nextH.Add(1))
}

// Register binds a handler to a handle. Events for that handle are
// dispatched to h until Deregister.
func (r *Reactor) Register(h Handle, handler Handler) {
	r.mu.Lock()
	r.byHandle[h] = handler
	r.mu.Unlock()
	// The nil check keeps a disabled trace free: boxing h for Record's
	// arguments would allocate on every connection.
	if r.trace != nil {
		r.trace.Record("reactor", "registered handler for handle %d", h)
	}
}

// Deregister removes the handler bound to a handle.
func (r *Reactor) Deregister(h Handle) {
	r.mu.Lock()
	delete(r.byHandle, h)
	r.mu.Unlock()
	if r.trace != nil {
		r.trace.Record("reactor", "deregistered handle %d", h)
	}
}

// RegisterType binds a fallback handler for all events of one type that
// have no per-handle handler (used for accept and completion events).
func (r *Reactor) RegisterType(t EventType, handler Handler) {
	r.mu.Lock()
	r.byType[t] = handler
	r.mu.Unlock()
}

// lookup resolves the handler for a ready event: per-handle binding first,
// then the per-type fallback.
func (r *Reactor) lookup(rd Ready) Handler {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if h, ok := r.byHandle[rd.Handle]; ok {
		return h
	}
	return r.byType[rd.Type]
}

// Dropped returns the number of ready events that arrived with no
// registered handler (normal during connection teardown races).
func (r *Reactor) Dropped() uint64 { return r.dropCount.Load() }

// Run starts the dispatcher threads. It is idempotent.
func (r *Reactor) Run() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	if r.processor != nil {
		r.processor.Start()
	}
	for i := 0; i < r.threads; i++ {
		r.wg.Add(1)
		go r.dispatch(i)
	}
	r.trace.Record("reactor", "running %d dispatcher threads (pool=%v)",
		r.threads, r.processor != nil)
}

// Stop closes the event source, waits for the dispatcher threads to drain
// it, then stops the Event Processor (if any). Idempotent.
func (r *Reactor) Stop() {
	r.stopOnce.Do(func() {
		r.source.Close()
	})
	r.wg.Wait()
	if r.processor != nil {
		r.processor.Stop()
	}
	r.trace.Record("reactor", "stopped")
}

// dispatch is the Event Dispatcher loop: take each event pushed onto
// the Source and route it.
func (r *Reactor) dispatch(id int) {
	defer r.wg.Done()
	for {
		rd, ok := r.source.Next()
		if !ok {
			return
		}
		if err := r.route(rd); err != nil {
			r.trace.Record("reactor", "dispatcher %d: processor closed: %v", id, err)
			return
		}
	}
}

// route looks up the event's handler and runs it: inline when the
// reactor has no Event Processor (only the dispatch loop gets here then),
// otherwise by submitting it to the processor at rd.Prio. Every event
// passes here, so this is where the debug trace (O10) records it.
func (r *Reactor) route(rd Ready) error {
	// Checked here so a disabled trace never boxes rd.
	if r.trace != nil {
		r.trace.Record("reactor", "route %s", rd)
	}
	handler := r.lookup(rd)
	if handler == nil {
		r.dropCount.Add(1)
		r.trace.Record("reactor", "no handler for %s", rd)
		return nil
	}
	if r.processor == nil {
		r.invoke(handler, rd)
		return nil
	}
	return r.processor.Submit(&routed{handler, rd})
}

// routed is a ready event bound to its handler, the Event Processor's
// queue entry: one allocation per event, at the event's own priority.
type routed struct {
	h  Handler
	rd Ready
}

func (e *routed) Process()                  { e.h.HandleReady(e.rd) }
func (e *routed) Priority() events.Priority { return e.rd.Prio }

// invoke runs a handler inline with panic isolation.
func (r *Reactor) invoke(h Handler, rd Ready) {
	defer func() {
		if rec := recover(); rec != nil {
			r.trace.Record("reactor", "handler panic on %s: %v", rd, rec)
		}
	}()
	h.HandleReady(rd)
	r.profile.Add(profiling.EventsProcessed, 1)
}
