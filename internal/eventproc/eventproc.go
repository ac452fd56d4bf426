// Package eventproc implements the Event Processor participant that the
// N-Server template adds to the Reactor pattern.
//
// "An Event Processor contains an event queue and a pool of threads that
// operate collaboratively to process ready events." The Event Dispatcher
// only polls for ready events and passes them here, which is how the
// generated server scales to multiple processors. A second Event Processor
// instance is used to emulate non-blocking file I/O (see internal/aio).
//
// Option O5 selects the worker allocation strategy: a static pool, or a
// dynamic pool managed by a Processor Controller that grows the pool under
// queue pressure and shrinks it when the queue stays empty. Option O8
// swaps the FIFO event queue for the quota-based priority queue, and the
// O9 overload controller samples this processor's queue length against its
// watermarks (see overload.go).
package eventproc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/options"
	"repro/internal/profiling"
)

// Config configures a Processor.
type Config struct {
	// Name labels the processor in traces ("reactive", "file-io").
	Name string
	// Queue supplies the event queue discipline. Nil means a new FIFO.
	Queue events.Queue
	// Workers is the pool size for static allocation and the initial size
	// for dynamic allocation. Must be positive.
	Workers int
	// Allocation selects static or dynamic worker allocation (O5).
	Allocation options.Allocation
	// MinWorkers/MaxWorkers bound the dynamic pool. Ignored when static.
	MinWorkers int
	MaxWorkers int
	// Profile receives EventProcessed counts (nil when O11 is off).
	Profile *profiling.Profile
	// WaitObserver, when non-nil, receives sampled queue-wait durations
	// (the adaptive admission limiter's congestion signal). It rides the
	// O11 timing lattice when profiling is on and an equivalent 1-in-N
	// lattice of its own when profiling is off, so the feed works in
	// either configuration without touching the unsampled Submit path.
	WaitObserver func(time.Duration)
	// Trace receives internal events in debug mode (nil in production).
	Trace *logging.Trace
}

// Processor is an event queue plus a pool of workers.
type Processor struct {
	name    string
	queue   events.Queue
	profile *profiling.Profile
	waitObs func(time.Duration)
	// waitSeen is the observer's own sampling lattice, used only when
	// profiling is off (StageStart never fires).
	waitSeen atomic.Uint64
	trace    *logging.Trace

	dynamic  bool
	min, max int

	// peers are sibling processors of the sharded runtime this processor
	// may steal queued events from when its own queue runs dry. Set once
	// with SetPeers before Start; empty for the unsharded runtime, whose
	// worker loop is then byte-for-byte the pre-sharding one.
	peers []*Processor

	// desired is the pool size the Processor Controller wants; workers
	// retire themselves when live > desired.
	desired atomic.Int32
	live    atomic.Int32

	wg       sync.WaitGroup
	ctrlDone chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
}

// ErrNotStarted is returned by Submit before Start.
var ErrNotStarted = errors.New("eventproc: processor not started")

// New validates cfg and creates a Processor. Call Start to launch workers.
func New(cfg Config) (*Processor, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("eventproc: workers must be positive (got %d)", cfg.Workers)
	}
	if cfg.Allocation == options.DynamicAllocation {
		if cfg.MinWorkers <= 0 || cfg.MaxWorkers < cfg.MinWorkers {
			return nil, fmt.Errorf("eventproc: dynamic allocation needs 0 < min <= max (got %d, %d)",
				cfg.MinWorkers, cfg.MaxWorkers)
		}
		if cfg.Workers < cfg.MinWorkers {
			cfg.Workers = cfg.MinWorkers
		}
		if cfg.Workers > cfg.MaxWorkers {
			cfg.Workers = cfg.MaxWorkers
		}
	}
	q := cfg.Queue
	if q == nil {
		q = events.NewFIFO()
	}
	p := &Processor{
		name:     cfg.Name,
		queue:    q,
		profile:  cfg.Profile,
		waitObs:  cfg.WaitObserver,
		trace:    cfg.Trace,
		dynamic:  cfg.Allocation == options.DynamicAllocation,
		min:      cfg.MinWorkers,
		max:      cfg.MaxWorkers,
		ctrlDone: make(chan struct{}),
	}
	p.desired.Store(int32(cfg.Workers))
	return p, nil
}

// Name returns the processor's trace label.
func (p *Processor) Name() string { return p.name }

// stealBatch bounds how many events one steal attempt may take from a
// victim: enough to amortize the extra queue locking, small enough that
// a momentarily idle shard cannot drain a busy one.
const stealBatch = 4

// stealPumpInterval is how often the steal pump re-checks peer backlogs
// while this processor's workers sit blocked on an empty queue.
const stealPumpInterval = time.Millisecond

// SetPeers wires the sibling processors this one may steal from. It must
// be called before Start (the slice is read without synchronization by
// the worker loop); p itself is skipped during stealing, so the full
// shard slice may be passed to every member.
func (p *Processor) SetPeers(peers []*Processor) {
	p.peers = peers
}

// steal moves up to stealBatch events from the first backlogged peer
// into the local queue, reporting whether anything was taken. Stealing
// is O8-aware twice over: TryPop on the victim follows the victim's
// quota cycle (so a steal cannot skim only high-priority work), and
// re-pushing locally files each event at its own priority level under
// the local quotas. If the local queue is already closed the stolen
// event is processed inline instead of being dropped.
func (p *Processor) steal() bool {
	stolen := false
	for _, v := range p.peers {
		if v == p || v == nil {
			continue
		}
		for i := 0; i < stealBatch; i++ {
			ev, ok := v.queue.TryPop()
			if !ok {
				break
			}
			stolen = true
			if err := p.queue.Push(ev); err != nil {
				p.process(ev)
			}
		}
		if stolen {
			p.trace.Record(p.name, "stole work from %s", v.name)
			return true
		}
	}
	return false
}

// stealPump keeps a fully parked shard responsive to remote backlog:
// workers blocked in Pop never re-evaluate peers, so when the local
// queue stays empty the pump periodically pulls a bounded batch across,
// and the Push wakes a blocked worker. It runs only when peers are set.
func (p *Processor) stealPump() {
	defer p.wg.Done()
	ticker := time.NewTicker(stealPumpInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.ctrlDone:
			return
		case <-ticker.C:
		}
		if p.queue.Len() == 0 {
			p.steal()
		}
	}
}

// Start launches the worker pool (and the Processor Controller for
// dynamic allocation). Start is idempotent.
func (p *Processor) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	n := int(p.desired.Load())
	for i := 0; i < n; i++ {
		p.spawn()
	}
	if p.dynamic {
		p.wg.Add(1)
		go p.controller()
	}
	if len(p.peers) > 0 {
		p.wg.Add(1)
		go p.stealPump()
	}
	p.trace.Record(p.name, "started with %d workers (dynamic=%v)", n, p.dynamic)
}

// timedEvent wraps a queued event to measure the O5 queue-wait quantity:
// the delta between Submit's Push and the worker's Pop+Process. The
// wrapper exists only for events StageStart sampled onto the timing
// lattice, so the allocation-free Submit path is untouched when O11 is
// off and pays one atomic add — no allocation — for unsampled events.
type timedEvent struct {
	ev      events.Event
	profile *profiling.Profile
	obs     func(time.Duration)
	enq     time.Time
}

// Process records the queue wait and delegates to the wrapped event.
func (t *timedEvent) Process() {
	wait := time.Since(t.enq)
	t.profile.ObserveStage(profiling.StageQueueWait, wait)
	if t.obs != nil {
		t.obs(wait)
	}
	t.ev.Process()
}

// Priority preserves the wrapped event's O8 scheduling priority.
func (t *timedEvent) Priority() events.Priority { return t.ev.Priority() }

// Submit queues an event for processing.
func (p *Processor) Submit(ev events.Event) error {
	if !p.started.Load() {
		return ErrNotStarted
	}
	if enq := p.profile.StageStart(); !enq.IsZero() {
		ev = &timedEvent{ev: ev, profile: p.profile, obs: p.waitObs, enq: enq}
	} else if p.waitObs != nil && p.waitSeen.Add(1)%profiling.StageSampleEvery == 0 {
		// Profiling off (or this submit missed its lattice): sample on
		// the observer's own 1-in-N lattice so the limiter still sees
		// queue waits with O11 deselected.
		ev = &timedEvent{ev: ev, obs: p.waitObs, enq: time.Now()}
	}
	if err := p.queue.Push(ev); err != nil {
		return err
	}
	p.profile.Add(profiling.EventsDispatched, 1)
	return nil
}

// QueueLen returns the current event queue length (the quantity the
// overload controller samples).
func (p *Processor) QueueLen() int { return p.queue.Len() }

// Workers returns the current live worker count.
func (p *Processor) Workers() int { return int(p.live.Load()) }

// Stop closes the queue, lets the workers drain the remaining events, and
// waits for them to exit. Stop is idempotent.
func (p *Processor) Stop() {
	p.stopOnce.Do(func() {
		close(p.ctrlDone)
		p.queue.Close()
	})
	p.wg.Wait()
	p.trace.Record(p.name, "stopped")
}

func (p *Processor) spawn() {
	p.live.Add(1)
	p.wg.Add(1)
	go p.work()
}

func (p *Processor) work() {
	defer p.wg.Done()
	for {
		if p.dynamic && p.tryRetire() {
			return
		}
		// Work stealing (sharded runtime only): a worker about to block
		// on an empty local queue first tries to pull a bounded batch
		// from a backlogged peer, so a pathological connection
		// distribution cannot idle this shard's core. With no peers the
		// TryPop/steal detour is skipped entirely.
		if len(p.peers) > 0 {
			if ev, ok := p.queue.TryPop(); ok {
				p.process(ev)
				continue
			}
			if p.steal() {
				continue
			}
		}
		ev, ok := p.queue.Pop()
		if !ok {
			p.live.Add(-1)
			return
		}
		p.process(ev)
	}
}

// tryRetire atomically claims one retirement slot when the Processor
// Controller has shrunk the pool. The CAS guarantees at most (live-desired)
// workers exit, and the min bound and the empty-queue check ensure
// shrinking never strands queued events or drops the pool below minimum.
func (p *Processor) tryRetire() bool {
	if p.queue.Len() != 0 {
		return false
	}
	for {
		l := p.live.Load()
		if l <= p.desired.Load() || int(l) <= p.min {
			return false
		}
		if p.live.CompareAndSwap(l, l-1) {
			return true
		}
	}
}

// process runs one event, isolating worker goroutines from handler panics
// (a failing event must not take down the pool).
func (p *Processor) process(ev events.Event) {
	defer func() {
		if r := recover(); r != nil {
			p.trace.Record(p.name, "event panic: %v", r)
		}
	}()
	ev.Process()
	p.profile.Add(profiling.EventsProcessed, 1)
}

// controlInterval is the Processor Controller's sampling period.
const controlInterval = 10 * time.Millisecond

// controller is the Processor Controller of option O5: it samples queue
// pressure every controlInterval, growing the pool when the backlog
// exceeds the live worker count and shrinking it after the queue stays
// empty.
func (p *Processor) controller() {
	defer p.wg.Done()
	ticker := time.NewTicker(controlInterval)
	defer ticker.Stop()
	idleStreak := 0
	for {
		select {
		case <-p.ctrlDone:
			return
		case <-ticker.C:
		}
		backlog := p.queue.Len()
		live := int(p.live.Load())
		switch {
		case backlog > live && live < p.max:
			idleStreak = 0
			p.desired.Store(int32(live + 1))
			p.spawn()
			p.trace.Record(p.name, "controller grew pool to %d (backlog %d)", live+1, backlog)
		case backlog == 0 && live > p.min:
			idleStreak++
			if idleStreak >= 3 {
				idleStreak = 0
				p.desired.Store(int32(live - 1))
				// A parked worker is blocked in Pop; nudge it so it can
				// observe the shrink request.
				_ = p.queue.Push(events.Func(func() {}))
				p.trace.Record(p.name, "controller shrank pool to %d", live-1)
			}
		default:
			idleStreak = 0
		}
	}
}
