package nserver

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acceptor"
	"repro/internal/admission"
	"repro/internal/aio"
	"repro/internal/cache"
	"repro/internal/eventproc"
	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/options"
	"repro/internal/profiling"
	"repro/internal/reactor"
	"repro/internal/reuseport"
)

// Config assembles a server from a validated option set plus the
// application hooks.
type Config struct {
	// Options is the Table 1 option assignment. Required and validated.
	Options options.Options
	// App supplies the application hook methods. Required.
	App App
	// Codec supplies Decode/Encode when Options.Codec is true. Required
	// iff Options.Codec.
	Codec Codec
	// Priority assigns initial connection priorities when event
	// scheduling (O8) is on. Nil means all connections at priority 0.
	Priority PriorityFunc
	// CustomCachePolicy is the victim-selection hook when Options.Cache
	// is options.CustomPolicy.
	CustomCachePolicy cache.VictimFunc
	// LogWriter receives application log records when Options.Logging;
	// nil falls back to a discard logger even when logging is on.
	Logger *logging.Logger
	// TraceSink receives the debug trace in Debug mode; nil keeps the
	// in-memory ring only.
	Trace *logging.Trace
	// GatePollInterval tunes how often a postponed acceptor re-checks
	// the overload gate (tests and simulations shrink it). Zero: 1ms.
	GatePollInterval time.Duration
	// Shed, when non-nil and overload control (O9) is on, switches the
	// acceptor from postponing to load shedding: while the gate is
	// paused, new connections are accepted and handed to Shed (which
	// must close them) instead of waiting in the listen backlog.
	// COPS-HTTP uses this to serve a prebuilt "503 + Retry-After".
	Shed func(net.Conn)
	// ShedPriority classifies a not-yet-attached connection for the O9
	// admission limiter's priority-aware shedding: it maps the raw transport to an O8 priority level — from transport
	// facts like the peer address, since no request has been read yet —
	// and connections at level 0 keep flowing while the limiter sheds.
	// Nil marks every connection fully sheddable.
	ShedPriority func(net.Conn) events.Priority
	// TraceSampleEvery sets the O12 request-trace sampling interval: one
	// completed request in every N is written to the Logger as a
	// structured "trace id=c<conn>-r<req> service=..." line. Zero means
	// the default (every 128th); 1 traces every request. Only effective
	// when Options.Logging is on and a Logger is supplied.
	TraceSampleEvery int
	// FastPath is the application's run-to-completion hook. It is not an
	// option: whenever it is installed and the server has a codec (O3) and
	// a separate worker pool (O2), each request decoded while the O9 gate
	// is clear is offered to it inline, on the connection's own reader
	// goroutine. The hook must either serve the request completely and
	// return true, or touch nothing and return false; a declined request,
	// and the rest of the drain, is punted to the event queue and handled
	// exactly as without the hook. It must not block on anything but the
	// connection's own reply write, except that it may make one metadata
	// syscall per revalidate window.
	// A memory-only reply the hook sends may be deferred: while more
	// requests are buffered behind the one it serves, the connection is
	// corked, and the window's replies leave together in one gathered
	// write when the drain pass ends — before a punt, and never held
	// across a read. The bytes and their order on the wire are unchanged.
	FastPath func(c *Conn, req any) bool
	// CacheOnRemove, when non-nil, is installed as the file cache's
	// removal hook (cache.Config.OnRemove): it is called with each key
	// whose bytes leave the cache — evictions, Remove, Put-replace — so
	// derived caches (the application's rendered-response cache) can
	// invalidate in lockstep. Ignored when no cache policy is selected.
	CacheOnRemove func(key string)
}

// defaultTraceSampleEvery is the O12 sampling interval when the
// configuration leaves TraceSampleEvery zero.
const defaultTraceSampleEvery = 128

// shard is one independent slice of the serve runtime: its own Reactor
// (event source, dispatcher threads), its own reactive Event Processor,
// its own connection table, scavenger and profiling counters. A
// connection is owned by exactly one shard for its whole life, so the
// per-request pipeline never takes a lock another shard contends on.
// The file-I/O pool, file cache and overload controller stay global:
// disk bandwidth and the shed decision are machine-wide quantities.
type shard struct {
	idx      int
	srv      *Server
	reactor  *reactor.Reactor
	timers   *reactor.TimerSource
	reactive *eventproc.Processor
	// profile is this shard's private counter set (nil when O11 is off):
	// hot-path writes land on memory no other shard touches and are
	// aggregated lazily by Server.Profile().
	profile *profiling.Profile
	// acceptor is the acceptor whose live-connection accounting this
	// shard reports teardown to: its own in SO_REUSEPORT mode, the
	// shared fan-out acceptor otherwise.
	acceptor *acceptor.Acceptor

	// connK counts connections attached to this shard; conn IDs are
	// strided (idx+1, idx+1+N, ...) so `c<conn>-r<req>` trace IDs stay
	// unique across shards without a shared sequence. With one shard
	// this degenerates to the pre-sharding 1,2,3,... sequence.
	connK atomic.Uint64

	mu    sync.Mutex
	conns map[reactor.Handle]*Conn

	reaperDone chan struct{}
}

// Server is the assembled N-Server instance.
type Server struct {
	opts     options.Options
	app      App
	codec    Codec
	priority PriorityFunc

	// shards are the per-core runtime slices; len(shards) ==
	// opts.Shards after New resolves the default.
	shards []*shard

	// Shard-0 aliases: the single-shard runtime is exactly the paper's,
	// and these keep that case (and application timers, which live on
	// shard 0) reachable under the historical names.
	reactor  *reactor.Reactor
	timers   *reactor.TimerSource
	reactive *eventproc.Processor

	// Global (cross-shard) components.
	fileio   *aio.Service
	fcache   *cache.Cache
	overload *eventproc.Overload
	// limiter is the O9 accept gate (nil unless O9 is on): the AIMD
	// admission limiter, with the overload watermarks as its backstop.
	limiter  *admission.Limiter
	profiles *profiling.Group
	// profile is the global profile of the group (nil unless O11): the
	// sink for components that are not sharded (file I/O, acceptors).
	profile  *profiling.Profile
	logger   *logging.Logger
	trace    *logging.Trace
	reqTrace *logging.RequestTrace

	// acceptor is the shared fan-out acceptor (single-listener mode);
	// acceptors lists every running acceptor (1 in fan-out mode, one
	// per shard in SO_REUSEPORT mode).
	acceptor  *acceptor.Acceptor
	acceptors []*acceptor.Acceptor

	// nextShard round-robins fan-out attachment; aioShard round-robins
	// async completion delivery across shard processors.
	nextShard atomic.Uint32
	aioShard  atomic.Uint32

	shed     func(net.Conn)
	gatePoll time.Duration
	started  atomic.Bool
	stopped  atomic.Bool
	acceptWG sync.WaitGroup

	// directDispatch records whether the run-to-completion fast path is
	// active, decided from the configuration alone: a FastPath hook, a
	// codec (the hook consumes decoded requests) and a separate worker
	// pool (declined requests punt to its queue).
	directDispatch bool
	fastPath       func(c *Conn, req any) bool
}

// New validates the configuration and assembles (but does not start) a
// server — the library analogue of template instantiation: every
// component below exists or not according to the option set, mirroring
// the Exists column of Table 2.
func New(cfg Config) (*Server, error) {
	if err := cfg.Options.Validate(); err != nil {
		return nil, fmt.Errorf("nserver: invalid options: %w", err)
	}
	if cfg.App == nil {
		return nil, errors.New("nserver: App hooks required")
	}
	if cfg.Options.Codec && cfg.Codec == nil {
		return nil, errors.New("nserver: O3 selects encoding/decoding but no Codec supplied")
	}
	if !cfg.Options.Codec && cfg.Codec != nil {
		return nil, errors.New("nserver: Codec supplied but O3 disables encoding/decoding")
	}
	o := cfg.Options
	nShards := o.ResolveShards(runtime.NumCPU())
	o.Shards = nShards

	s := &Server{
		opts:     o,
		app:      cfg.App,
		codec:    cfg.Codec,
		priority: cfg.Priority,
		logger:   cfg.Logger,
		shed:     cfg.Shed,
		gatePoll: cfg.GatePollInterval,
	}

	// O11: profiling counters exist only when selected — one private
	// Profile per shard plus a global one, aggregated lazily.
	if o.Profiling {
		s.profiles = profiling.NewGroup(nShards)
		s.profile = s.profiles.Global()
	}
	// O12: the sampled request tracer exists only when logging is on and
	// a logger is attached.
	if o.Logging && cfg.Logger != nil {
		every := cfg.TraceSampleEvery
		if every == 0 {
			every = defaultTraceSampleEvery
		}
		s.reqTrace = logging.NewRequestTrace(cfg.Logger, every)
	}
	// O10: the debug trace exists only in debug mode.
	if o.Mode == options.Debug {
		s.trace = cfg.Trace
		if s.trace == nil {
			s.trace = logging.NewTrace(nil, 4096)
		}
	}

	// O9: the admission gate exists only when selected. The AIMD limiter
	// is the accept gate, with the watermark controller as its hard
	// backstop. Both are built before the shards so their event
	// processors can feed the limiter queue-wait samples; the queues are
	// put under watermark watch once they exist, further down.
	if o.OverloadControl {
		s.overload = eventproc.NewOverload(s.profile, s.trace)
		levels := 1
		if o.EventScheduling {
			levels = o.PriorityLevels
		}
		var classify func(net.Conn) int
		if cfg.ShedPriority != nil {
			sp := cfg.ShedPriority
			classify = func(c net.Conn) int { return int(sp(c)) }
			// A classifier implies at least two shed classes even without
			// O8 (one level would clamp everything to 0 and re-admit it).
			if levels < 2 {
				levels = 2
			}
		}
		s.limiter = admission.New(admission.Config{
			MaxLimit: o.MaxConnections,
			Inflight: s.inflightNow,
			Backstop: s.overload,
			Levels:   levels,
			Classify: classify,
		})
	}

	// Assemble the shards: each gets its own event source chain,
	// reactive Event Processor (O2/O5/O8 queue discipline) and Reactor.
	s.shards = make([]*shard, nShards)
	for i := 0; i < nShards; i++ {
		sh := &shard{idx: i, srv: s, conns: make(map[reactor.Handle]*Conn)}
		sh.profile = s.profiles.Shard(i)

		var src reactor.Source = reactor.NewBasicSource(shardName("events", i, nShards))
		if o.Mode == options.Debug {
			src = reactor.NewTraceSource(src, s.trace)
		}
		sh.timers = reactor.NewTimerSource(src)

		if o.SeparateThreadPool {
			queue, err := events.NewQueue(o.EventScheduling, o.Quotas)
			if err != nil {
				return nil, err
			}
			proc, err := eventproc.New(eventproc.Config{
				Name:         shardName("reactive", i, nShards),
				Queue:        queue,
				Workers:      o.EventThreads,
				Allocation:   o.Allocation,
				MinWorkers:   o.MinEventThreads,
				MaxWorkers:   o.MaxEventThreads,
				Profile:      sh.profile,
				WaitObserver: s.waitObserver(),
				Trace:        s.trace,
			})
			if err != nil {
				return nil, err
			}
			sh.reactive = proc
		}

		r, err := reactor.New(reactor.Config{
			Source:            sh.timers,
			DispatcherThreads: o.DispatcherThreads,
			Processor:         sh.reactive,
			Profile:           sh.profile,
			Trace:             s.trace,
		})
		if err != nil {
			return nil, err
		}
		sh.reactor = r

		// Inline completion dispatch (only reachable when O2 is off).
		sh.reactor.RegisterType(reactor.CompletionReady, reactor.HandlerFunc(func(rd reactor.Ready) {
			if comp, ok := rd.Data.(*events.Completion); ok {
				comp.Process()
			}
		}))
		s.shards[i] = sh
	}
	s.reactor = s.shards[0].reactor
	s.timers = s.shards[0].timers
	s.reactive = s.shards[0].reactive

	// Run-to-completion fast path (see the directDispatch field doc).
	s.fastPath = cfg.FastPath
	s.directDispatch = s.fastPath != nil && s.codec != nil && o.SeparateThreadPool

	// Bounded work stealing between the shard queues: only wired when
	// more than one shard exists, so the single-shard worker loop stays
	// the pre-sharding one.
	if nShards > 1 && o.SeparateThreadPool {
		procs := make([]*eventproc.Processor, nShards)
		for i, sh := range s.shards {
			procs[i] = sh.reactive
		}
		for _, sh := range s.shards {
			sh.reactive.SetPeers(procs)
		}
	}

	// O6: the Cache class exists only when a policy is selected; the
	// file-I/O Event Processor emulates non-blocking disk access.
	if o.Cache != options.NoCache {
		fc, err := cache.New(o.CacheCapacity, o.Cache, cache.Config{
			Threshold: o.CacheThreshold,
			Custom:    cfg.CustomCachePolicy,
			// Server caches shard by processor count so parallel workers
			// on the serve path never contend on one cache mutex.
			Shards: cache.DefaultShards(o.CacheCapacity),
			// Large files stream from descriptors; admitting them would
			// only evict the hot set on the way through.
			MaxEntryBytes: o.LargeFileThreshold,
			OnRemove:      cfg.CacheOnRemove,
		})
		if err != nil {
			return nil, err
		}
		s.fcache = fc
	}
	var sink aio.Sink
	if o.Completion == options.AsynchronousCompletion {
		switch {
		case s.reactive != nil && nShards == 1:
			sink = s.reactive.Submit
		case s.reactive != nil:
			// Completions round-robin across the shard processors: the
			// completion handler re-enters the owning Conn, which takes
			// its own pipeline lock, so any shard's worker may run it.
			sink = func(ev events.Event) error {
				i := s.aioShard.Add(1)
				return s.shards[int(i)%nShards].reactive.Submit(ev)
			}
		default:
			// Without a separate pool, completions re-enter through the
			// event source and are dispatched inline.
			sink = func(ev events.Event) error {
				comp := ev.(*events.Completion)
				sh := s.shards[int(s.aioShard.Add(1))%nShards]
				return sh.reactor.Source().Emit(reactor.Ready{
					Type: reactor.CompletionReady,
					Data: comp,
					Prio: comp.Prio,
				})
			}
		}
	}
	ioWorkers := o.FileIOThreads
	if ioWorkers <= 0 {
		ioWorkers = 2
	}
	svc, err := aio.New(aio.Config{
		Workers:      ioWorkers,
		Mode:         o.Completion,
		Sink:         sink,
		Cache:        s.fcache,
		Profile:      s.profile,
		WaitObserver: s.waitObserver(),
		Trace:        s.trace,
	})
	if err != nil {
		return nil, err
	}
	s.fileio = svc

	// The watermark backstop watches every shard's reactive event queue
	// (CPU bottleneck) and the global file-I/O queue (disk bottleneck) —
	// "overload situations that can be caused by multiple bottlenecks,
	// such as CPU and disk". The watermarks are evaluated per shard
	// queue; any shard over its high watermark pauses the (global)
	// accept gate, and accepting resumes only once every watched queue
	// is back at its low watermark.
	if o.OverloadControl {
		for i, sh := range s.shards {
			if sh.reactive == nil {
				continue
			}
			if err := s.overload.Watch(shardName("reactive", i, nShards), sh.reactive, o.HighWatermark, o.LowWatermark); err != nil {
				return nil, err
			}
		}
		if err := s.overload.Watch("file-io", s.fileio, o.HighWatermark, o.LowWatermark); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// waitObserver returns the queue-wait sample feed for the admission
// limiter (nil when O9 is off, keeping Submit untouched).
func (s *Server) waitObserver() func(time.Duration) {
	if s.limiter == nil {
		return nil
	}
	return s.limiter.Observe
}

// shardName labels a per-shard component: the bare name for the
// single-shard runtime (matching the paper's single-reactor layout) and
// "name-<i>" once sharding multiplies the component.
func shardName(name string, i, n int) string {
	if n == 1 {
		return name
	}
	return fmt.Sprintf("%s-%d", name, i)
}

// Options returns the option assignment the server was built with (with
// Shards resolved to the effective shard count).
func (s *Server) Options() options.Options { return s.opts }

// Profile returns the sharded profiling group (nil unless O11 is on).
// Snapshot and StageSnapshot aggregate lazily across shards; Shard(i)
// exposes the per-shard breakdown.
func (s *Server) Profile() *profiling.Group { return s.profiles }

// Shards returns the effective shard count of the runtime.
func (s *Server) Shards() int { return len(s.shards) }

// Trace returns the debug trace (nil unless O10 is Debug).
func (s *Server) Trace() *logging.Trace { return s.trace }

// Logger returns the application logger (nil unless supplied).
func (s *Server) Logger() *logging.Logger {
	if !s.opts.Logging {
		return nil
	}
	return s.logger
}

// RequestTrace returns the O12 sampled request tracer (nil unless
// logging is on and a logger was supplied).
func (s *Server) RequestTrace() *logging.RequestTrace { return s.reqTrace }

// Deferred returns the cumulative deferred/shed connection count across
// every acceptor (0 before Start).
func (s *Server) Deferred() uint64 {
	var total uint64
	for _, acc := range s.acceptors {
		total += acc.Deferred()
	}
	return total
}

// Cache returns the file cache (nil unless O6 selects a policy).
func (s *Server) Cache() *cache.Cache { return s.fcache }

// AIO returns the emulated asynchronous file I/O service.
func (s *Server) AIO() *aio.Service { return s.fileio }

// Timers returns the timer event source for application timers (they
// live on shard 0).
func (s *Server) Timers() *reactor.TimerSource { return s.timers }

// Overload returns the overload controller (nil unless O9 is on).
func (s *Server) Overload() *eventproc.Overload { return s.overload }

// Admission returns the O9 admission limiter (nil unless O9 is on).
func (s *Server) Admission() *admission.Limiter { return s.limiter }

// inflightNow is the connection count the admission limiter meters
// against: the acceptors' own accept-time counters. The shard registries
// (ActiveConns) only learn about a connection once its AcceptReady event
// is processed, so during a synchronized dial burst they lag far behind
// what the acceptors have already admitted — metering on them lets the
// whole burst through before the gate ever reads a non-zero count.
func (s *Server) inflightNow() int {
	accs := s.acceptors
	if len(accs) == 0 {
		return s.ActiveConns()
	}
	total := 0
	for _, a := range accs {
		total += a.Live()
	}
	return total
}

// ActiveConns returns the number of live connections across all shards.
func (s *Server) ActiveConns() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.conns)
		sh.mu.Unlock()
	}
	return total
}

// ParkedWrites returns the number of connections with reply residuals
// parked on their outbound queues — replies the write pump is finishing
// on the netpoller, with no worker goroutine attached.
func (s *Server) ParkedWrites() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, c := range sh.conns {
			if c.OutboundQueued() > 0 {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// OutboundQueuedBytes returns the logical bytes (memory + file residual)
// parked across every connection's outbound queue.
func (s *Server) OutboundQueuedBytes() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, c := range sh.conns {
			total += c.OutboundQueued()
		}
		sh.mu.Unlock()
	}
	return total
}

// ShardConns returns the live connection count of one shard (0 for an
// out-of-range index).
func (s *Server) ShardConns(i int) int {
	if i < 0 || i >= len(s.shards) {
		return 0
	}
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.conns)
}

// Addr returns the listening address (nil before Start). With multiple
// SO_REUSEPORT listeners all share one address.
func (s *Server) Addr() net.Addr {
	if len(s.acceptors) == 0 {
		return nil
	}
	return s.acceptors[0].Addr()
}

// pickShard selects the shard for a fan-out-accepted connection
// (round-robin, the cheapest placement that is provably balanced for
// homogeneous connections; work stealing covers the rest).
func (s *Server) pickShard() *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[int(s.nextShard.Add(1)-1)%len(s.shards)]
}

// Start begins serving connections accepted from ln through the
// portable single-listener path: one acceptor fans accepted transports
// out across the shards round-robin. It returns immediately; use
// Shutdown to stop. Start may be called once (use StartListeners for
// per-shard SO_REUSEPORT listeners).
func (s *Server) Start(ln net.Listener) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("nserver: already started")
	}
	acc, err := acceptor.New(acceptor.Config{
		Listener:         ln,
		Reactor:          s.shards[0].reactor,
		Gate:             s.gate(),
		MaxConns:         s.opts.MaxConnections,
		GatePollInterval: s.gatePoll,
		Shed:             s.shed,
		Profile:          s.profile,
		Trace:            s.trace,
	})
	if err != nil {
		return err
	}
	s.acceptor = acc
	s.acceptors = []*acceptor.Acceptor{acc}
	for _, sh := range s.shards {
		sh.acceptor = acc
	}
	// The Acceptor Event Handler: wrap each accepted transport in a
	// Communicator on the next shard and start its pipeline.
	s.shards[0].reactor.Register(acc.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
		if rd.Type == reactor.AcceptReady {
			s.attach(s.pickShard(), rd.Data.(net.Conn))
		}
	}))
	s.startRuntime()
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		acc.Run()
	}()
	s.trace.Record("server", "serving on %s", ln.Addr())
	return nil
}

// StartListeners begins serving with one listener per shard (typically
// SO_REUSEPORT siblings bound to one address): each shard runs its own
// acceptor on its own reactor, so connection establishment shares no
// lock across shards. len(lns) must equal the shard count.
func (s *Server) StartListeners(lns []net.Listener) error {
	if len(lns) != len(s.shards) {
		return fmt.Errorf("nserver: got %d listeners for %d shards", len(lns), len(s.shards))
	}
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("nserver: already started")
	}
	gate := s.gate()
	for i, sh := range s.shards {
		sh := sh
		acc, err := acceptor.New(acceptor.Config{
			Listener: lns[i],
			Reactor:  sh.reactor,
			Gate:     gate,
			MaxConns: s.opts.MaxConnections,
			// The connection bound is machine-wide: every shard acceptor
			// compares against the global live count.
			Active:           s.ActiveConns,
			GatePollInterval: s.gatePoll,
			Shed:             s.shed,
			Profile:          sh.profile,
			Trace:            s.trace,
		})
		if err != nil {
			for _, a := range s.acceptors {
				_ = a.Close()
			}
			return err
		}
		sh.acceptor = acc
		s.acceptors = append(s.acceptors, acc)
		sh.reactor.Register(acc.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
			if rd.Type == reactor.AcceptReady {
				s.attach(sh, rd.Data.(net.Conn))
			}
		}))
	}
	s.acceptor = s.acceptors[0]
	s.startRuntime()
	for _, acc := range s.acceptors {
		acc := acc
		s.acceptWG.Add(1)
		go func() {
			defer s.acceptWG.Done()
			acc.Run()
		}()
	}
	s.trace.Record("server", "serving on %s across %d shard listeners", lns[0].Addr(), len(lns))
	return nil
}

// gate returns the O9 accept gate: the admission limiter, nil when
// overload control is off.
func (s *Server) gate() acceptor.Gate {
	if s.limiter == nil {
		return nil
	}
	return s.limiter
}

// startRuntime starts the global file-I/O pool, every shard's reactor
// and the per-shard scavengers.
func (s *Server) startRuntime() {
	s.fileio.Start()
	for _, sh := range s.shards {
		sh.reactor.Run()
	}
	// O7: the idle reaper exists only when selected. The same scavenger
	// doubles as the slow-client reaper whenever a ReadTimeout bounds
	// request assembly, so a slowloris peer that keeps refreshing its
	// activity timestamp with one-byte reads still gets collected. Each
	// shard scavenges its own connection table.
	if s.opts.ShutdownLongIdle || s.opts.ReadTimeout > 0 {
		for _, sh := range s.shards {
			sh.reaperDone = make(chan struct{})
			go s.reap(sh)
		}
	}
}

// ListenAndServe binds addr on TCP and starts the server. With more
// than one shard it prefers per-shard SO_REUSEPORT listeners (Linux),
// falling back to the portable single-listener fan-out.
func (s *Server) ListenAndServe(addr string) error {
	if len(s.shards) > 1 {
		if lns, err := reuseport.Listeners(addr, len(s.shards)); err == nil {
			return s.StartListeners(lns)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Start(ln)
}

// Shutdown stops accepting, closes every connection, drains the event
// machinery and stops the pools. Idempotent.
func (s *Server) Shutdown() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, acc := range s.acceptors {
		_ = acc.Close()
	}
	s.acceptWG.Wait()
	for _, sh := range s.shards {
		if sh.reaperDone != nil {
			close(sh.reaperDone)
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		conns := make([]*Conn, 0, len(sh.conns))
		for _, c := range sh.conns {
			conns = append(conns, c)
		}
		sh.mu.Unlock()
		for _, c := range conns {
			c.teardown(nil)
		}
	}
	// Give teardown events a chance to be queued, then stop dispatch.
	s.fileio.Stop()
	for _, sh := range s.shards {
		sh.reactor.Stop()
	}
	s.trace.Record("server", "shutdown complete")
}

// attach wraps an accepted transport in a Communicator owned by sh,
// registers its handler and starts the Read Request loop.
func (s *Server) attach(sh *shard, nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		// Keep-alive request streams answer with many small replies;
		// Nagle coalescing against delayed ACKs would serialize them.
		// Go's dialer defaults to no-delay, but wrapped or non-default
		// transports may not — set it explicitly at the one choke point.
		_ = tc.SetNoDelay(true)
	}
	c := &Conn{
		srv:    s,
		sh:     sh,
		conn:   nc,
		handle: sh.reactor.NewHandle(),
		id:     (sh.connK.Add(1)-1)*uint64(len(s.shards)) + uint64(sh.idx) + 1,
		raw:    rawConnOf(nc),
	}
	c.unparked.L = &c.writeMu
	c.inSpace.L = &c.inMu
	c.touch()
	if s.priority != nil {
		c.SetPriority(s.priority(c))
	}
	sh.mu.Lock()
	sh.conns[c.handle] = c
	sh.mu.Unlock()
	sh.reactor.Register(c.handle, reactor.HandlerFunc(c.handleReady))
	s.trace.Record("server", "communicator attached for %s (shard %d, handle %d, prio %d)",
		nc.RemoteAddr(), sh.idx, c.handle, c.Priority())
	s.app.OnConnect(c)
	go c.readLoop()
}

// fastGateClear reports whether the O9 gate permits the fast path:
// during overload every request must ride the event queue, where the
// admission limiter's queue-wait samples and the watermark controller's
// depth checks can see it. Eliding the queue under load would starve the
// very signal the shed decision feeds on.
func (s *Server) fastGateClear() bool {
	return s.limiter == nil || s.limiter.Clear()
}

// detach removes a finished connection from its shard.
func (s *Server) detach(c *Conn) {
	sh := c.sh
	sh.mu.Lock()
	delete(sh.conns, c.handle)
	sh.mu.Unlock()
	sh.reactor.Deregister(c.handle)
	if sh.acceptor != nil {
		sh.acceptor.ConnClosed()
	}
}

// handleRequest runs the application's Handle Request hook with panic
// isolation and per-request profiling (on the owning shard's counters).
func (s *Server) handleRequest(c *Conn, req any) {
	rid := c.nextRequestID()
	start := s.serviceStart(c)
	defer func() {
		if r := recover(); r != nil {
			s.trace.Record("server", "handler panic on %d (%s): %v", c.handle, c.RequestID(), r)
			c.teardown(fmt.Errorf("nserver: handler panic: %v", r))
		}
	}()
	s.app.Handle(c, req)
	s.served(c, rid, start)
}

// tryFastHandle runs the application's FastPath hook for one decoded
// request, with panic isolation. It reports whether the request was
// consumed: true means it was served inline (or the hook panicked and
// the connection is torn down — the request must not be retried after a
// possibly partial write); false means the hook touched nothing and the
// request belongs to the queued path. A successful fast serve lands in
// the same request counters and Handle-stage histogram as the queued
// path, plus the direct-dispatch counter.
func (s *Server) tryFastHandle(c *Conn, req any) (consumed bool) {
	start := s.serviceStart(c)
	defer func() {
		if r := recover(); r != nil {
			consumed = true
			s.trace.Record("server", "fast-path panic on %d (%s): %v", c.handle, c.RequestID(), r)
			c.teardown(fmt.Errorf("nserver: fast-path panic: %v", r))
		}
	}()
	if !s.fastPath(c, req) {
		return false
	}
	c.sh.profile.DirectDispatched()
	s.served(c, c.reqs.Load(), start)
	return true
}

// serviceStart stamps the start of one request's service time, or returns
// the zero time when neither the shard profile (O11) nor the request
// tracer (O12) will consume it: with both off a request reads no clock.
func (s *Server) serviceStart(c *Conn) time.Time {
	if c.sh.profile == nil && s.reqTrace == nil {
		return time.Time{}
	}
	return time.Now()
}

// served records request rid's service time since start (a serviceStart
// stamp; zero records nothing) on the owning shard's counters and the
// request tracer.
func (s *Server) served(c *Conn, rid uint64, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	c.sh.profile.RequestServed(d)
	c.sh.profile.ObserveStage(profiling.StageHandle, d)
	s.reqTrace.Sample(c.id, rid, d)
}

// encode runs the Encode Reply step with panic isolation: a buggy Encode
// hook fails the reply, not the worker dispatching it.
func (s *Server) encode(reply any) (data []byte, err error) {
	if s.codec != nil {
		defer func() {
			if r := recover(); r != nil {
				data = nil
				err = fmt.Errorf("nserver: encode panic: %v", r)
			}
		}()
		return s.codec.Encode(reply)
	}
	data, ok := reply.([]byte)
	if !ok {
		return nil, fmt.Errorf("nserver: no codec configured; Reply requires []byte, got %T", reply)
	}
	return data, nil
}

// reap is one shard's connection scavenger: the idle reaper of option O7
// (long inactivity) plus the slow-client reaper (a partially assembled
// request older than ReadTimeout — the slowloris defense). Either bound
// may be active alone; the sampling interval follows the tighter of the
// two.
func (s *Server) reap(sh *shard) {
	idle := time.Duration(0)
	if s.opts.ShutdownLongIdle {
		idle = s.opts.IdleTimeout
	}
	slow := s.opts.ReadTimeout
	interval := idle / 4
	if slow > 0 && (interval <= 0 || slow/4 < interval) {
		interval = slow / 4
	}
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-sh.reaperDone:
			return
		case <-ticker.C:
		}
		sh.mu.Lock()
		idleVictims := make([]*Conn, 0)
		slowVictims := make([]*Conn, 0)
		for _, c := range sh.conns {
			switch {
			case idle > 0 && c.IdleFor() > idle:
				idleVictims = append(idleVictims, c)
			case slow > 0 && c.RequestPendingFor() > slow:
				slowVictims = append(slowVictims, c)
			}
		}
		sh.mu.Unlock()
		for _, c := range idleVictims {
			s.trace.Record("server", "idle shutdown of handle %d after %v", c.handle, c.IdleFor())
			sh.profile.IdleShutdown()
			c.teardown(nil)
		}
		for _, c := range slowVictims {
			s.trace.Record("server", "slow-client shutdown of handle %d (request pending %v)",
				c.handle, c.RequestPendingFor())
			sh.profile.IdleShutdown()
			c.teardown(ErrSlowClient)
		}
	}
}
