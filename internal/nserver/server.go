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
	// Logger receives application log records when Options.Logging;
	// nil falls back to a discard logger even when logging is on.
	Logger *logging.Logger
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
	// FastPath is the application's run-to-completion hook. It is not an
	// option: whenever it is installed and the server has a codec (O3) and
	// a separate worker pool (O2), each request decoded while the O9 gate
	// is clear is offered to it inline, on the connection's own reader
	// goroutine. The hook must either serve the request completely and
	// return true, or touch nothing and return false; a declined request,
	// and the rest of the drain, is punted to the event queue and handled
	// exactly as without the hook. It must not block on anything but the
	// connection's own reply write, except that it may make one metadata
	// syscall per revalidate window. The hook owns a request it consumes:
	// the runtime never touches it again, so the hook may recycle it. A
	// declined request, and every request on the queued path, belongs to
	// the Handle hook as before.
	// A reply the hook sends may be deferred: while more requests are
	// buffered behind the one it serves, the window's replies wait behind
	// a reply position the drain reserved, and leave together in one
	// gathered write when the drain pass ends — before a punt, and never
	// held across a read. The bytes and their order on the wire are
	// unchanged.
	FastPath func(c *Conn, req any) bool
	// CacheOnRemove, when non-nil, is installed as the file cache's
	// removal hook (cache.Config.OnRemove): it is called with each key
	// whose bytes leave the cache — evictions, Remove, Put-replace — so
	// derived caches (the application's rendered-response cache) can
	// invalidate in lockstep. Ignored when no cache policy is selected.
	CacheOnRemove func(key string)
}

// traceSampleEvery is the O12 request-trace sampling interval: one
// completed request in every 128 is written to the Logger as a
// structured "trace id=c<conn>-r<req> service=..." line, the rate the
// generated frameworks use too.
const traceSampleEvery = 128

// readerIdleWait is how long a reader goroutine whose connection has
// ended waits for attach to hand it the next one before it exits.
const readerIdleWait = time.Second

// shard is one independent slice of the serve runtime: its own Reactor
// (event source, dispatcher threads), its own reactive Event Processor,
// its own connection table and profiling counters. A
// connection is owned by exactly one shard for its whole life, so the
// per-request pipeline never takes a lock another shard contends on.
// The file-I/O pool, file cache and overload controller stay global:
// disk bandwidth and the shed decision are machine-wide quantities.
type shard struct {
	idx      int
	srv      *Server
	reactor  *reactor.Reactor
	reactive *eventproc.Processor
	// profile is this shard's private counter set (nil when O11 is off):
	// hot-path writes land on memory no other shard touches and are
	// aggregated lazily by Server.Profile().
	profile *profiling.Profile

	// connK counts connections attached to this shard; conn IDs are
	// strided (idx+1, idx+1+N, ...) so `c<conn>-r<req>` trace IDs stay
	// unique across shards without a shared sequence. With one shard
	// this degenerates to the pre-sharding 1,2,3,... sequence.
	connK atomic.Uint64
	// badSteps counts lifecycle transitions the table forbids (actBad);
	// any nonzero count is a defect.
	badSteps atomic.Uint64

	mu    sync.Mutex
	conns map[reactor.Handle]*Conn
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
	// and these keep that case reachable under the historical names.
	reactor  *reactor.Reactor
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

	// acceptor is the server's one Acceptor (nil before Start): it
	// accepts for every shard and fans connections out round-robin.
	acceptor *acceptor.Acceptor

	// nextShard round-robins fan-out attachment; aioShard round-robins
	// async completion delivery across shard processors.
	nextShard atomic.Uint32
	aioShard  atomic.Uint32

	shed     func(net.Conn)
	started  atomic.Bool
	stopped  atomic.Bool
	acceptWG sync.WaitGroup

	// readers hands an accepted connection to an idle reader goroutine
	// (see reader); readerStarts counts the reader goroutines attach has
	// started, and done, closed by Shutdown, ends the idle ones.
	readers      chan *Conn
	readerStarts atomic.Uint64
	done         chan struct{}

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
		readers:  make(chan *Conn),
		done:     make(chan struct{}),
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
		s.reqTrace = logging.NewRequestTrace(cfg.Logger, traceSampleEvery)
	}
	// O10: the debug trace exists only in debug mode, as an in-memory
	// ring.
	if o.Mode == options.Debug {
		s.trace = logging.NewTrace(nil, 4096)
	}

	// O9: the admission gate exists only when selected. The AIMD limiter
	// is the accept gate, with the watermark controller as its hard
	// backstop. Both are built before the shards so their event
	// processors can feed the limiter queue-wait samples; the queues are
	// put under watermark watch once they exist, further down.
	if o.OverloadControl {
		s.overload = eventproc.NewOverload(s.trace)
		levels := 1
		if o.EventScheduling {
			levels = len(o.Quotas)
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
			Source:            reactor.NewBasicSource(shardName("events", i, nShards)),
			DispatcherThreads: o.DispatcherThreads,
			Processor:         sh.reactive,
			Profile:           sh.profile,
			Trace:             s.trace,
		})
		if err != nil {
			return nil, err
		}
		sh.reactor = r

		// The Completion Event route: aio completions when O2 is off, and
		// Connector dials (see Connector) at every O2 setting.
		sh.reactor.RegisterType(reactor.CompletionReady, reactor.HandlerFunc(func(rd reactor.Ready) {
			if comp, ok := rd.Data.(*events.Completion); ok {
				comp.Process()
			}
		}))
		s.shards[i] = sh
	}
	s.reactor = s.shards[0].reactor
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
		case s.reactive != nil:
			// Completions round-robin across the shard processors (the
			// one processor when unsharded): the completion handler
			// re-enters the owning Conn, which takes its own pipeline
			// lock, so any shard's worker may run it.
			sink = func(ev events.Event) error {
				i := s.aioShard.Add(1)
				return s.shards[int(i)%nShards].reactive.Submit(ev)
			}
		default:
			// Without a separate pool, completions queue for the
			// dispatcher threads and are dispatched inline.
			sink = func(ev events.Event) error {
				comp := ev.(*events.Completion)
				sh := s.shards[int(s.aioShard.Add(1))%nShards]
				return sh.reactor.Emit(reactor.Ready{
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

// Deferred returns how many accepts the acceptor postponed or shed (0
// before Start; see acceptor.Acceptor.Deferred).
func (s *Server) Deferred() uint64 {
	if s.acceptor == nil {
		return 0
	}
	return s.acceptor.Deferred()
}

// Cache returns the file cache (nil unless O6 selects a policy).
func (s *Server) Cache() *cache.Cache { return s.fcache }

// AIO returns the emulated asynchronous file I/O service.
func (s *Server) AIO() *aio.Service { return s.fileio }

// Overload returns the overload controller (nil unless O9 is on).
func (s *Server) Overload() *eventproc.Overload { return s.overload }

// Admission returns the O9 admission limiter (nil unless O9 is on).
func (s *Server) Admission() *admission.Limiter { return s.limiter }

// inflightNow is the connection count the admission limiter meters
// against: the acceptor's own accept-time counter. The shard registries
// (ActiveConns) only learn about a connection once its AcceptReady event
// is processed, so during a synchronized dial burst they lag far behind
// what the acceptor has already admitted — metering on them lets the
// whole burst through before the gate ever reads a non-zero count.
func (s *Server) inflightNow() int {
	if s.acceptor == nil {
		return s.ActiveConns()
	}
	return s.acceptor.Live()
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

// LifecycleBadSteps returns how many lifecycle transitions the table
// forbids (see lifecycle.go) any connection has taken: 0 unless a caller
// steps an edge its connection's state does not allow.
func (s *Server) LifecycleBadSteps() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.badSteps.Load()
	}
	return n
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

// Addr returns the listening address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.acceptor == nil {
		return nil
	}
	return s.acceptor.Addr()
}

// Connector returns a Connector dialing under timeout whose completions
// take the server's Completion Event route: each Connect's continuation
// runs like any other ready event (on an Event Processor worker when O2
// is Yes), the Connector Event Handler of Table 2.
func (s *Server) Connector(timeout time.Duration) *acceptor.Connector {
	return acceptor.NewConnector(s.reactor, timeout, s.trace)
}

// pickShard selects the shard for an accepted connection
// (round-robin, the cheapest placement that is provably balanced for
// homogeneous connections; work stealing covers the rest).
func (s *Server) pickShard() *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[int(s.nextShard.Add(1)-1)%len(s.shards)]
}

// Start begins serving connections accepted from ln. One Acceptor owns
// the listener at every shard count: it meters the O9 gate and
// MaxConnections against its own accept-time count, and its handler
// attaches each connection to the next shard round-robin. It returns
// immediately; use Shutdown to stop. Start may be called once.
func (s *Server) Start(ln net.Listener) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("nserver: already started")
	}
	var gate acceptor.Gate
	if s.limiter != nil {
		gate = s.limiter
	}
	acc, err := acceptor.New(acceptor.Config{
		Listener: ln,
		Reactor:  s.shards[0].reactor,
		Gate:     gate,
		MaxConns: s.opts.MaxConnections,
		Shed:     s.shed,
		Profile:  s.profile,
		Trace:    s.trace,
	})
	if err != nil {
		return err
	}
	s.acceptor = acc
	// The Acceptor Event Handler: wrap each accepted transport in a
	// Communicator on the next shard and start its pipeline.
	s.shards[0].reactor.Register(acc.Handle(), reactor.HandlerFunc(func(rd reactor.Ready) {
		if rd.Type == reactor.AcceptReady {
			s.attach(s.pickShard(), rd.Data.(net.Conn), s.app, s.codec)
		}
	}))
	s.fileio.Start()
	for _, sh := range s.shards {
		sh.reactor.Run()
	}
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		acc.Run()
	}()
	s.trace.Record("server", "serving on %s", ln.Addr())
	return nil
}

// ListenAndServe binds addr on TCP with a keep-alive listener (see
// listen) and starts the server on it.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := listen(addr)
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
	if s.acceptor != nil {
		_ = s.acceptor.Close()
	}
	s.acceptWG.Wait()
	close(s.done)
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
	// The close events are queued; stopping the reactors drains them.
	s.fileio.Stop()
	for _, sh := range s.shards {
		sh.reactor.Stop()
	}
	s.trace.Record("server", "shutdown complete")
}

// Attach puts an already-connected transport on the next shard as a
// Conn with its own hooks and no codec (Fig. 2's O3 = No pipeline): Handle
// receives the bytes read a chunk at a time, and Reply and Send take raw
// bytes. A read that arrives while an earlier chunk still waits for
// Handle joins that chunk, so Handle may receive two or more reads as
// one chunk: chunk boundaries are not the peer's write boundaries. An
// application that dials or accepts a socket itself (COPS-FTP's data
// connections) thereby gets the read and write paths, deadlines,
// metrics and Shutdown of an accepted connection. The connection counts
// in the acceptor's live count, but Attach never refuses it for
// MaxConnections. app.OnConnect runs before Attach returns. The server
// must be started; once Shutdown has begun, Attach closes nc and returns
// ErrConnClosed.
func (s *Server) Attach(nc net.Conn, app App) error {
	s.acceptor.ConnAttached()
	if !s.attach(s.pickShard(), nc, app, nil) {
		return ErrConnClosed
	}
	return nil
}

// attach wraps a transport in a Communicator owned by sh with the given
// hooks, registers its handler and hands it to a reader goroutine: an
// idle one if any is waiting, a new one otherwise. It reports false when
// Shutdown refused the connection. A TCP transport arrives with
// TCP_NODELAY already set: Go's accept and dial paths set it on every
// *net.TCPConn.
func (s *Server) attach(sh *shard, nc net.Conn, app App, codec Codec) bool {
	c := &Conn{
		srv:    s,
		app:    app,
		codec:  codec,
		sh:     sh,
		conn:   nc,
		handle: sh.reactor.NewHandle(),
		id:     (sh.connK.Add(1)-1)*uint64(len(s.shards)) + uint64(sh.idx) + 1,
		raw:    rawConnOf(nc),
	}
	c.unparked.L = &c.writeMu
	c.inSpace.L = &c.inMu
	c.touch()
	c.outCap = maxOutboundBytes
	if d, _ := c.writeBound(); d > 0 && c.raw != nil {
		setNotSentLowat(c.raw, notSentLowat)
		c.outCap += sndbufCeiling - notSentLowat
	}
	if s.priority != nil {
		c.SetPriority(s.priority(c))
	}
	// Shutdown sets stopped before it sweeps sh.conns under sh.mu, so a
	// connection is either swept or refused here: one added after the
	// sweep would never be closed. The handler is registered under the
	// same lock, so a swept connection's close event finds it.
	sh.mu.Lock()
	if s.stopped.Load() {
		sh.mu.Unlock()
		nc.Close()
		s.acceptor.ConnClosed()
		return false
	}
	sh.conns[c.handle] = c
	sh.reactor.Register(c.handle, reactor.HandlerFunc(c.handleReady))
	sh.mu.Unlock()
	if s.trace != nil {
		s.trace.Record("server", "communicator attached for %s (shard %d, handle %d, prio %d)",
			nc.RemoteAddr(), sh.idx, c.handle, c.Priority())
	}
	app.OnConnect(c)
	select {
	case s.readers <- c:
	default:
		s.readerStarts.Add(1)
		go s.reader(c)
	}
	return true
}

// reader is a Read Request goroutine. It runs c's readLoop, then waits up
// to readerIdleWait for attach to hand it the next connection, so under
// connection churn a new connection is read by a goroutine whose stack
// has already grown to serve requests, instead of by a fresh 2 KiB one
// that grows it again. The lease reader belongs to the goroutine, not to
// a connection. An idle reader exits when the wait runs out or at
// Shutdown.
func (s *Server) reader(c *Conn) {
	lr := newLeaseReader()
	// The idle timer is made when the first connection ends, so a reader
	// that never idles (a long-lived connection) carries none.
	var idle *time.Timer
	for {
		c.readLoop(lr)
		c = nil
		if idle == nil {
			idle = time.NewTimer(readerIdleWait)
		} else {
			idle.Reset(readerIdleWait)
		}
		select {
		case c = <-s.readers:
			// A tick that raced the hand-off must not cut the next wait
			// short.
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
		case <-idle.C:
			return
		case <-s.done:
			idle.Stop()
			return
		}
	}
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
	s.acceptor.ConnClosed()
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
	c.app.Handle(c, req)
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
	c.sh.profile.Add(profiling.DirectDispatched, 1)
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
func (c *Conn) encode(reply any) (data []byte, err error) {
	if c.codec != nil {
		defer func() {
			if r := recover(); r != nil {
				data = nil
				err = fmt.Errorf("nserver: encode panic: %v", r)
			}
		}()
		return c.codec.Encode(reply)
	}
	data, ok := reply.([]byte)
	if !ok {
		return nil, fmt.Errorf("nserver: no codec configured; Reply requires []byte, got %T", reply)
	}
	return data, nil
}
