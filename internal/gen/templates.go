package gen

// This file holds the code templates of the N-Server generative pattern.
// Each {{if}} section corresponds to a cell of Table 2: an option either
// decides whether a class is emitted at all (the "O" cells — the
// completion-event types, the codec hooks, the Processor Controller, the
// Cache) or changes the code generated for a class (the "+" cells — the
// priority field woven into Event and Communicator, the watermark checks
// in the dispatcher, the profiling counters, the debug trace calls).
// Nothing is decided at run time: a framework generated without an option
// contains no trace of it, which is the paper's central argument against
// a one-size static framework.
// The event model and queues, the O9 limiter and watermarks, the
// lifecycle table and the TCP_NOTSENT_LOWAT helper are not templates:
// nsgen projects them from the runtime's own source (project.go).

const docTemplate = `// Package {{.Package}} is a network server framework generated by nsgen,
// the Go reproduction of the CO2P3S N-Server design pattern template
// (Guo, Schaeffer, Szafron, Earl; IPPS 2005).
//
// DO NOT EDIT: regenerate with nsgen when option settings change.
//
// Option settings baked into this framework:
{{- range .OptionRows}}
//   {{.}}
{{- end}}
//
// The application supplies the hook methods of the Hooks interface; the
// framework owns the event-driven concurrency: the Reactor{{if .Sharded}}s ({{.Shards}}
// runtime shards with bounded work stealing between their event
// queues){{end}}, the Event
// Processor{{if .Async}}, asynchronous completion events{{end}}{{if .Cache}}, the file cache{{end}} and
// connection management.
package {{.Package}}
`

const frameworkTemplate = `package {{.Package}}

import (
	"errors"
	"fmt"
	"io"
	{{- if .Logging}}
	"log"
	{{- end}}
	"net"
	"os"
	"sync"
	"sync/atomic"
	{{- if .WriteBound}}
	"syscall"
	{{- end}}
	{{- if or .Dynamic .Idle .Overload .Debug .ReadDeadline .WriteDeadline .Profiling .Logging}}
	"time"
	{{- end}}
)

// ---------------------------------------------------------------------
// Event Processor (Table 2 rows: Event Processor{{if .Dynamic}}, Processor Controller{{end}})
// ---------------------------------------------------------------------

// EventProcessor is an event queue drained by a pool of worker threads.
type EventProcessor struct {
	queue *{{if .Scheduling}}PriorityQueue{{else}}FIFO{{end}}
	wg    sync.WaitGroup
	{{- if .Sharded}}
	// peers are the sibling shards' processors this one may steal
	// queued events from when its own queue runs dry.
	peers []*EventProcessor
	{{- end}}
	{{- if .Dynamic}}
	desired atomic.Int32
	live    atomic.Int32
	ctlDone chan struct{}
	{{- end}}
	{{- if .Overload}}
	// limiter receives sampled queue waits; waitSeen counts submissions
	// so one event in admissionSampleEvery carries a timestamp.
	limiter  *Limiter
	waitSeen atomic.Uint64
	{{- end}}
}

func newEventProcessor(workers int) *EventProcessor {
	{{- if .Scheduling}}
	queue, err := NewPriorityQueue([]int{ {{range $i, $q := .Quotas}}{{if $i}}, {{end}}{{$q}}{{end}} })
	if err != nil {
		panic(err) // the quotas were validated with the options
	}
	{{- else}}
	queue := NewFIFO()
	{{- end}}
	p := &EventProcessor{queue: queue{{if .Dynamic}}, ctlDone: make(chan struct{}){{end}}}
	{{- if .Dynamic}}
	p.desired.Store(int32(workers))
	{{- end}}
	for i := 0; i < workers; i++ {
		{{- if .Dynamic}}
		p.spawn()
		{{- else}}
		p.wg.Add(1)
		go p.work()
		{{- end}}
	}
	{{- if .Dynamic}}
	p.wg.Add(1)
	go p.controller()
	{{- end}}
	return p
}

{{- if .Overload}}

// admissionSampleEvery is the queue-wait sampling rate: one submission in
// this many carries its enqueue time to the admission limiter.
const admissionSampleEvery = 16

// waitSampledEvent stamps one submission in admissionSampleEvery with
// its enqueue time; Process reports the measured queue wait to the
// admission limiter before delegating.
type waitSampledEvent struct {
	ev      Event
	limiter *Limiter
	enq     time.Time
}

func (e waitSampledEvent) Process() {
	e.limiter.Observe(time.Since(e.enq))
	e.ev.Process()
}

{{if .Scheduling}}func (e waitSampledEvent) Priority() Priority { return e.ev.Priority() }{{end}}

// Submit queues an event for the worker pool, sampling queue wait for
// the admission limiter.
func (p *EventProcessor) Submit(ev Event) error {
	if p.limiter != nil && p.waitSeen.Add(1)%admissionSampleEvery == 0 {
		ev = waitSampledEvent{ev: ev, limiter: p.limiter, enq: time.Now()}
	}
	return p.queue.Push(ev)
}
{{- else}}

// Submit queues an event for the worker pool.
func (p *EventProcessor) Submit(ev Event) error { return p.queue.Push(ev) }
{{- end}}

// QueueLen reports the backlog{{if .Overload}} sampled by the overload watermarks{{end}}.
func (p *EventProcessor) QueueLen() int { return p.queue.Len() }

// Stop drains and joins the pool.
func (p *EventProcessor) Stop() {
	{{- if .Dynamic}}
	close(p.ctlDone)
	{{- end}}
	p.queue.Close()
	p.wg.Wait()
}

func (p *EventProcessor) work() {
	defer p.wg.Done()
	for {
		{{- if .Dynamic}}
		if p.live.Load() > p.desired.Load() && p.queue.Len() == 0 {
			if p.tryRetire() {
				return
			}
		}
		{{- end}}
		{{- if .Sharded}}
		// A worker about to block on an empty local queue first tries to
		// pull a bounded batch from a backlogged peer shard.
		if len(p.peers) > 0 {
			if ev, ok := p.queue.TryPop(); ok {
				p.run(ev)
				continue
			}
			if p.steal() {
				continue
			}
		}
		{{- end}}
		ev, ok := p.queue.Pop()
		if !ok {
			{{- if .Dynamic}}
			p.live.Add(-1)
			{{- end}}
			return
		}
		p.run(ev)
	}
}

{{if .Sharded -}}
// stealBatch bounds how many events one steal attempt may take from a
// peer: enough to amortize the extra locking, small enough that a
// momentarily idle shard cannot drain a busy one.
const stealBatch = 4

// steal moves up to stealBatch events from the first backlogged peer
// into the local queue, reporting whether anything was taken. If the
// local queue is already closed the stolen event is run inline instead
// of being dropped.
func (p *EventProcessor) steal() bool {
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
				p.run(ev)
			}
		}
		if stolen {
			return true
		}
	}
	return false
}
{{- end}}

func (p *EventProcessor) run(ev Event) {
	defer func() {
		if r := recover(); r != nil {
			{{- if .Debug}}
			trace("processor", fmt.Sprintf("event panic: %v", r))
			{{- else}}
			_ = r
			{{- end}}
		}
	}()
	ev.Process()
}

{{if .Dynamic}}
func (p *EventProcessor) spawn() {
	p.live.Add(1)
	p.wg.Add(1)
	go p.work()
}

func (p *EventProcessor) tryRetire() bool {
	for {
		l := p.live.Load()
		if l <= p.desired.Load() || l <= {{.MinThreads}} {
			return false
		}
		if p.live.CompareAndSwap(l, l-1) {
			return true
		}
	}
}

// controller is the Processor Controller generated for dynamic thread
// allocation: it grows the pool under backlog and shrinks it when idle,
// within the generated bounds [{{.MinThreads}}, {{.MaxThreads}}].
func (p *EventProcessor) controller() {
	defer p.wg.Done()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	idle := 0
	for {
		select {
		case <-p.ctlDone:
			return
		case <-ticker.C:
		}
		backlog := p.queue.Len()
		live := int(p.live.Load())
		switch {
		case backlog > live && live < {{.MaxThreads}}:
			idle = 0
			p.desired.Store(int32(live + 1))
			p.spawn()
		case backlog == 0 && live > {{.MinThreads}}:
			idle++
			if idle >= 3 {
				idle = 0
				p.desired.Store(int32(live - 1))
				_ = p.queue.Push(Func(func() {}))
			}
		default:
			idle = 0
		}
	}
}
{{end}}

// ---------------------------------------------------------------------
// Reactor and Event Dispatcher (Table 2 rows: Reactor, Event Dispatcher,
// Handle)
// ---------------------------------------------------------------------

// Handle identifies a registered event endpoint.
type Handle uint64

type readyKind int

const (
	// readyRead signals inbound bytes to drain: a chunk readLoop queued.
	readyRead readyKind = iota
	readyClose
)

// ready is one demultiplexed event from the Event Source.
type ready struct {
	kind   readyKind
	handle Handle
	err    error
	{{- if .Scheduling}}
	prio int
	{{- end}}
}

// Reactor demultiplexes ready events to registered handlers using
// {{.DispatcherThreads}} dispatcher thread(s){{if .Pool}} and hands processing to the
// reactive Event Processor{{end}}.
type Reactor struct {
	source   chan ready
	mu       sync.RWMutex
	handlers map[Handle]func(ready)
	{{- if not .Sharded}}
	nextH    atomic.Uint64
	{{- end}}
	wg       sync.WaitGroup
	{{- if .Pool}}
	proc *EventProcessor
	{{- end}}
}

func newReactor({{if .Pool}}proc *EventProcessor{{end}}) *Reactor {
	r := &Reactor{
		source:   make(chan ready, 65536),
		handlers: make(map[Handle]func(ready)),
		{{- if .Pool}}
		proc: proc,
		{{- end}}
	}
	for i := 0; i < {{.DispatcherThreads}}; i++ {
		r.wg.Add(1)
		go r.dispatch()
	}
	return r
}

{{if .Sharded -}}
// handleSeq issues handles server-wide: communicators of different shard
// reactors share one connection table, so handles must never collide
// across shards.
var handleSeq atomic.Uint64

func (r *Reactor) newHandle() Handle { return Handle(handleSeq.Add(1)) }
{{- else -}}
func (r *Reactor) newHandle() Handle { return Handle(r.nextH.Add(1)) }
{{- end}}

func (r *Reactor) register(h Handle, fn func(ready)) {
	r.mu.Lock()
	r.handlers[h] = fn
	r.mu.Unlock()
}

func (r *Reactor) deregister(h Handle) {
	r.mu.Lock()
	delete(r.handlers, h)
	r.mu.Unlock()
}

func (r *Reactor) emit(rd ready) {
	defer func() { recover() }()
	r.source <- rd
}

func (r *Reactor) stop() {
	close(r.source)
	r.wg.Wait()
	{{- if .Pool}}
	r.proc.Stop()
	{{- end}}
}

// dispatch is the Event Dispatcher loop: poll the Event Source, look up
// the registered Event Handler, and run it{{if .Pool}} on the Event Processor{{end}}.
func (r *Reactor) dispatch() {
	defer r.wg.Done()
	for rd := range r.source {
		r.mu.RLock()
		fn := r.handlers[rd.handle]
		r.mu.RUnlock()
		if fn == nil {
			continue
		}
		{{- if .Pool}}
		if err := r.proc.Submit({{if .Scheduling}}PFunc{P: Priority(rd.prio), F: func() { fn(rd) }}{{else}}Func(func() { fn(rd) }){{end}}); err != nil {
			return
		}
		{{- else}}
		fn(rd)
		{{- end}}
	}
}

// ---------------------------------------------------------------------
// Emulated asynchronous file I/O (Table 2 rows: File Handle, File Read
// Event — {{if .Async}}asynchronous completion events{{else}}synchronous completions{{end}})
// ---------------------------------------------------------------------

// FileIO emulates non-blocking file reads with a worker pool of
// {{.FileIOThreads}} thread(s).
type FileIO struct {
	proc *EventProcessor
	{{- if .Pool}}{{if .Async}}
	{{- if .Sharded}}
	// reactives are the per-shard reactive processors; completions are
	// spread across them round-robin by rr.
	reactives [{{.Shards}}]*EventProcessor
	rr        atomic.Uint64
	{{- else}}
	reactive *EventProcessor
	{{- end}}
	{{- end}}{{end}}
	{{- if .Cache}}
	cache *Cache
	{{- end}}
}

{{if .Sharded}}{{if .Pool}}{{if .Async -}}
// submitReactive posts a completion event to the next shard's reactive
// processor round-robin, so completion work spreads across the shards
// no matter which connection started the file operation.
func (io *FileIO) submitReactive(ev Event) error {
	return io.reactives[int(io.rr.Add(1))%{{.Shards}}].Submit(ev)
}
{{- end}}{{end}}{{end}}

type fileReadEvent struct {
	io   *FileIO
	path string
	{{- if .Async}}
	tok Token
	{{- end}}
	{{- if .Scheduling}}
	prio int
	{{- end}}
	done func({{if .Async}}Token, {{end}}[]byte, error)
}

{{if .Scheduling -}}
func (e *fileReadEvent) Priority() Priority { return Priority(e.prio) }
{{- end}}

// Process performs the blocking read on a file-I/O worker and completes
// {{if .Async}}by posting a Completion{{else}}inline{{end}}.
func (e *fileReadEvent) Process() {
	data, err := os.ReadFile(e.path)
	{{- if .Cache}}
	if err == nil {
		e.io.cache.Put(e.path, data)
	}
	{{- end}}
	{{- if .Async}}
	e.io.complete(e.tok{{if .Scheduling}}, e.prio{{end}}, e.done, data, err)
	{{- else}}
	e.done(data, err)
	{{- end}}
}

{{if .LargeFile}}
// largeFileThreshold is the streaming cutoff woven into this framework:
// the application serves bodies of at least this many bytes with
// FileIO.Open + Communicator.SendFile instead of FileIO.ReadFile, so
// they never pass through memory{{if .Cache}} (or the cache){{end}}.
const largeFileThreshold = {{.LargeFileThreshold}}

// fileOpenEvent is the File Open Event: it resolves a descriptor and its
// metadata on a file-I/O worker without reading the contents.
type fileOpenEvent struct {
	io   *FileIO
	path string
	{{- if .Async}}
	tok Token
	{{- end}}
	{{- if .Scheduling}}
	prio int
	{{- end}}
	done func({{if .Async}}Token, {{end}}*os.File, os.FileInfo, error)
}

{{if .Scheduling -}}
func (e *fileOpenEvent) Priority() Priority { return Priority(e.prio) }
{{- end}}

// Process opens and stats the file; ownership of the descriptor passes
// to done, which must close it.
func (e *fileOpenEvent) Process() {
	f, err := os.Open(e.path)
	var info os.FileInfo
	if err == nil {
		if info, err = f.Stat(); err != nil {
			f.Close()
			f = nil
		}
	}
	{{- if .Async}}
	e.io.post(&Completion{Token: e.tok, Result: f, Err: err{{if .Scheduling}}, Prio: Priority(e.prio){{end}},
		Done: func(tok Token, _ any, err error) { e.done(tok, f, info, err) }})
	{{- else}}
	e.done(f, info, err)
	{{- end}}
}

{{if .Async -}}
// Open issues an emulated asynchronous open+stat. Opens bypass the
// cache{{if .Cache}} — the large-file path exists to keep such bodies out of it{{end}}.
func (io *FileIO) Open(path string, state any{{if .Scheduling}}, prio int{{end}}, done func(Token, *os.File, os.FileInfo, error)) (Token, error) {
	tok := NewToken(state)
	err := io.proc.Submit(&fileOpenEvent{io: io, path: path, tok: tok{{if .Scheduling}}, prio: prio{{end}}, done: done})
	return tok, err
}
{{- else -}}
// Open issues an emulated asynchronous open+stat; done runs on the
// file-I/O worker (synchronous completion events).
func (io *FileIO) Open(path string{{if .Scheduling}}, prio int{{end}}, done func(*os.File, os.FileInfo, error)) error {
	return io.proc.Submit(&fileOpenEvent{io: io, path: path{{if .Scheduling}}, prio: prio{{end}}, done: done})
}
{{- end}}
{{end}}

{{if .Async -}}
// ReadFile issues an emulated asynchronous read; the returned token is
// echoed to done when the completion event is processed.
func (io *FileIO) ReadFile(path string, state any{{if .Scheduling}}, prio int{{end}}, done func(Token, []byte, error)) (Token, error) {
	tok := NewToken(state)
	{{- if .Cache}}
	if data, ok := io.cache.Get(path); ok {
		io.complete(tok{{if .Scheduling}}, prio{{end}}, done, data, nil)
		return tok, nil
	}
	{{- end}}
	err := io.proc.Submit(&fileReadEvent{io: io, path: path, tok: tok{{if .Scheduling}}, prio: prio{{end}}, done: done})
	return tok, err
}

func (io *FileIO) complete(tok Token{{if .Scheduling}}, prio int{{end}}, done func(Token, []byte, error), data []byte, err error) {
	io.post(&Completion{Token: tok, Result: data, Err: err{{if .Scheduling}}, Prio: Priority(prio){{end}},
		Done: func(tok Token, _ any, err error) { done(tok, data, err) }})
}

// post delivers a file operation's Completion {{if .Pool}}through the reactive Event
// Processor, or runs it here once that has stopped{{else}}inline{{end}}.
func (io *FileIO) post(ev *Completion) {
	{{- if .Pool}}
	if io.{{if .Sharded}}submitReactive(ev){{else}}reactive.Submit(ev){{end}} == nil {
		return
	}
	{{- end}}
	ev.Process()
}
{{- else -}}
// ReadFile issues an emulated asynchronous read; done runs on the
// file-I/O worker (synchronous completion events).
func (io *FileIO) ReadFile(path string{{if .Scheduling}}, prio int{{end}}, done func([]byte, error)) error {
	{{- if .Cache}}
	if data, ok := io.cache.Get(path); ok {
		done(data, nil)
		return nil
	}
	{{- end}}
	return io.proc.Submit(&fileReadEvent{io: io, path: path{{if .Scheduling}}, prio: prio{{end}}, done: done})
}
{{- end}}

{{if .Profiling}}
// ---------------------------------------------------------------------
// Performance profiling (generated for option O11)
// ---------------------------------------------------------------------

// Pipeline stage indexes of the per-stage duration histograms. Only the
// stages this framework was generated with exist: the codec stages are
// woven in with option O3.
const (
	stageRead = iota
	{{- if .Codec}}
	stageDecode
	{{- end}}
	stageHandle
	{{- if .Codec}}
	stageEncode
	{{- end}}
	stageSend
	numStages
)

// stageNames labels the histogram slots for reports.
var stageNames = [numStages]string{"read", {{if .Codec}}"decode", {{end}}"handle", {{if .Codec}}"encode", {{end}}"send"}

// StageHistogram is a lock-free fixed-bucket latency histogram: bucket i
// counts durations of at most 64ns<<i, the last bucket is unbounded.
// Observing is three atomic adds; there are no locks on the hot path.
type StageHistogram struct {
	Count   atomic.Uint64
	SumNano atomic.Uint64
	Buckets [28]atomic.Uint64
}

// Observe records one duration.
func (h *StageHistogram) Observe(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	i := 0
	for i < len(h.Buckets)-1 && n > 64<<i {
		i++
	}
	h.Count.Add(1)
	h.SumNano.Add(uint64(n))
	h.Buckets[i].Add(1)
}

// Profile gathers the statistics the profiling option reports.
type Profile struct {
	ConnectionsAccepted atomic.Uint64
	BytesRead           atomic.Uint64
	BytesSent           atomic.Uint64
	RequestsServed      atomic.Uint64
	{{- if .Cache}}
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	{{- end}}
	{{- if .DirectDispatch}}
	// DirectDispatched counts requests the FastPath hook served inline,
	// on the goroutine that woke the connection, never entering the queue.
	DirectDispatched atomic.Uint64
	{{- end}}
	// Stages holds one duration histogram per generated pipeline stage.
	Stages [numStages]StageHistogram
}

// Report formats the counters.
func (p *Profile) Report() string {
	return fmt.Sprintf("accepted=%d read=%dB sent=%dB requests=%d{{if .Cache}} cache=%d/%d{{end}}",
		p.ConnectionsAccepted.Load(), p.BytesRead.Load(), p.BytesSent.Load(),
		p.RequestsServed.Load(){{if .Cache}}, p.CacheHits.Load(), p.CacheMisses.Load(){{end}})
}

// StageReport formats one "stage n=<count> mean=<duration>" line per
// pipeline stage histogram.
func (p *Profile) StageReport() string {
	var sb []byte
	for i := 0; i < numStages; i++ {
		h := &p.Stages[i]
		n := h.Count.Load()
		var mean time.Duration
		if n > 0 {
			mean = time.Duration(h.SumNano.Load() / n)
		}
		sb = fmt.Appendf(sb, "%s n=%d mean=%v\n", stageNames[i], n, mean)
	}
	return string(sb)
}
{{end}}

{{if .Debug}}
// ---------------------------------------------------------------------
// Debug-mode internal event trace (generated for option O10 = Debug)
// ---------------------------------------------------------------------

var traceMu sync.Mutex

// trace appends one internal event to the debug trace stream.
func trace(component, msg string) {
	traceMu.Lock()
	defer traceMu.Unlock()
	fmt.Fprintf(os.Stderr, "TRACE %s [%s] %s\n", time.Now().Format("15:04:05.000"), component, msg)
}
{{end}}

// ---------------------------------------------------------------------
// Communicator (Table 2 rows: Communicator Component, Read Request /
// Send Reply{{if .Codec}} / Decode Request / Encode Reply{{end}} Event Handlers)
// ---------------------------------------------------------------------

// errConnClosed reports I/O on a finished connection.
var errConnClosed = errors.New("{{.Package}}: connection closed")

{{if .ReadDeadline}}
// readTimeout bounds every blocking read{{if .Codec}} and the assembly of a
// single request, counted from its first byte{{end}}, so a stalled or
// trickling client cannot hold a Communicator forever.
const readTimeout = time.Duration({{.ReadTimeoutNanos}})
{{end}}
{{if .Idle}}
// idleTimeout closes a connection that moves no byte for this long (O7).
const idleTimeout = time.Duration({{.IdleTimeoutNanos}})
{{end}}
{{if .WriteDeadline}}
// writeTimeout bounds each reply write so an unread peer socket cannot
// park a worker in Send indefinitely.
const writeTimeout = time.Duration({{.WriteTimeoutNanos}})
{{end}}
{{if .Idle}}
// writeBound is how long one blocking write may stall: {{if .WriteDeadline}}writeTimeout,
// or the idle bound where that is tighter{{else}}the idle bound{{end}}.
// A peer that takes no reply byte for that long is closed; one that
// keeps reading is not.
const writeBound = {{if .WriteDeadline}}min(writeTimeout, idleTimeout){{else}}idleTimeout{{end}}
{{end}}
{{if .WriteBound}}
// writeFlushChunk is the largest span armed under one write deadline:
// Send re-arms the deadline per chunk{{if .Idle}} and stamps activity after it{{end}}, so
// the bound is on how long the peer may stall the transfer, not on the
// transfer's total size.
const writeFlushChunk = 256 << 10
{{end}}
{{if .CapRequest}}
// maxRequestBytes caps the bytes buffered while decoding one request:
// what a decode pass leaves undecoded, so one read of many complete
// pipelined requests passes and the buffer stays within the cap plus one
// read chunk. A client exceeding it is disconnected rather than allowed
// to grow the decode buffer without bound.
const maxRequestBytes = {{.MaxRequestBytes}}

// errRequestTooLarge reports a connection torn down by the request cap.
var errRequestTooLarge = errors.New("{{.Package}}: request exceeds maxRequestBytes")
{{end}}

// Communicator binds one connection to the request pipeline: Read Request
// {{- if .Codec}}, Decode Request, Handle Request, Encode Reply and Send Reply (the
// five steps of the pattern){{else}} and Send Reply (the codec steps are elided:
// encoding/decoding not selected){{end}}.
type Communicator struct {
	srv    *Server
	conn   net.Conn
	handle Handle
	{{- if .Sharded}}
	// reactor is the shard reactor this connection was placed on; all of
	// the connection's ready events flow through it.
	reactor *Reactor
	{{- end}}
	// life is the connection's lifecycle word, stepped through the
	// runtime's lifecycle table (see step); inbox holds the chunks
	// readLoop read, in order, under inMu.
	life  atomic.Uint32
	inMu  sync.Mutex
	inbox [][]byte
	{{- if .Codec}}
	inbuf []byte
	{{- end}}
	// writeMu serializes the Send Reply step: every reply's flush.
	writeMu sync.Mutex
	state   atomic.Value
	{{- if .Scheduling}}
	prio atomic.Int32
	{{- end}}
	{{- if .Idle}}
	lastActive atomic.Int64
	{{- end}}
	{{- if and .ReadDeadline .Codec}}
	// reqStart is the unix-nano time the buffered partial request's
	// first byte arrived (0 when none is buffered).
	reqStart atomic.Int64
	{{- end}}
	{{- if .Logging}}
	id   uint64
	reqs atomic.Uint64
	{{- end}}
}

// RemoteAddr returns the peer address.
func (c *Communicator) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

{{if .Logging}}
// RequestID returns the structured trace ID "c<conn>-r<request>" of the
// request most recently started on this connection: the server-wide
// connection sequence number and the per-connection request ordinal.
func (c *Communicator) RequestID() string {
	return fmt.Sprintf("c%d-r%d", c.id, c.reqs.Load())
}
{{end}}

// SetState attaches application session state.
func (c *Communicator) SetState(v any) { c.state.Store(v) }

// State returns the attached session state.
func (c *Communicator) State() any { return c.state.Load() }

// Server returns the owning server.
func (c *Communicator) Server() *Server { return c.srv }

{{if .Scheduling}}
// Priority returns the connection's scheduling priority.
func (c *Communicator) Priority() int { return int(c.prio.Load()) }

// SetPriority reassigns the connection's scheduling priority.
func (c *Communicator) SetPriority(p int) { c.prio.Store(int32(p)) }
{{end}}

{{if .Idle}}
func (c *Communicator) touch() { c.lastActive.Store(nowNanos()) }
{{end}}
{{if or .ReadDeadline .Idle}}
func nowNanos() int64 { return time.Now().UnixNano() }

// readDeadline returns the unix-nano deadline of a read armed at armed:
// the earliest of the selected read-side bounds (silence, request
// assembly, idle).
func (c *Communicator) readDeadline(armed int64) int64 {
	{{- if .ReadDeadline}}
	d := armed + int64(readTimeout)
	{{- if .Codec}}
	if start := c.reqStart.Load(); start != 0 {
		d = min(d, start+int64(readTimeout))
	}
	{{- end}}
	{{- if .Idle}}
	d = min(d, c.lastActive.Load()+int64(idleTimeout))
	{{- end}}
	return d
	{{- else}}
	return c.lastActive.Load() + int64(idleTimeout)
	{{- end}}
}
{{end}}

// outItem is one reply in wire order: data{{if .LargeFile}}, then n bytes of f from off{{end}}.
type outItem struct {
	data []byte
	{{- if .LargeFile}}
	f   *os.File
	off int64
	n   int64
	{{- end}}
}

// Send transmits raw bytes (the Send Reply step) as one outbound item.
func (c *Communicator) Send(data []byte) error { return c.send(outItem{data: data}) }

{{if .LargeFile}}
// sendFileBufs pools the copy buffers of the streaming path so SendFile
// allocates nothing per chunk.
var sendFileBufs = sync.Pool{New: func() any { b := make([]byte, 32*1024); return &b }}

// SendFile is the large-file Send Reply step: head, then length bytes of
// f from offset, as one outbound item streamed in pooled 32 KiB chunks,
// so the reply body never occupies memory proportional to the file.
func (c *Communicator) SendFile(head []byte, f *os.File, offset, length int64) error {
	return c.send(outItem{data: head, f: f, off: offset, n: length})
}
{{end}}

// send is the Send Reply step every reply takes: flush moves the item
// until it is sent or a write fails (the connection shuts down).
func (c *Communicator) send(it outItem) error {
	if c.closed() {
		return errConnClosed
	}
	{{- if .Profiling}}
	sendStart := time.Now()
	{{- end}}
	c.writeMu.Lock()
	_, err := c.flush(&it)
	c.writeMu.Unlock()
	{{- if .Profiling}}
	c.srv.Profile.Stages[stageSend].Observe(time.Since(sendStart))
	{{- end}}
	if err != nil && err != errConnClosed {
		c.shutdown(err)
	}
	return err
}

// flush is the one loop that moves reply bytes: the item's data{{if .LargeFile}}, then
// its file range read into a pooled buffer a chunk at a time,{{end}} until all of it
// is sent or a write fails. Called with writeMu held.
func (c *Communicator) flush(it *outItem) (again bool, err error) {
	{{- if .LargeFile}}
	var scratch []byte
	if it.n > 0 {
		bufp := sendFileBufs.Get().(*[]byte)
		defer sendFileBufs.Put(bufp)
		scratch = *bufp
	}
	for len(it.data) > 0 || it.n > 0 {
		buf := it.data
		if len(buf) == 0 {
			want := it.n
			if want > int64(len(scratch)) {
				want = int64(len(scratch))
			}
			nr, rerr := it.f.ReadAt(scratch[:want], it.off)
			if nr == 0 {
				// The file ran out before the promised length: the framing
				// cannot be repaired once the head has gone out.
				return false, fmt.Errorf("{{.Package}}: file shorter than streamed length (%v)", rerr)
			}
			buf = scratch[:nr]
		}
	{{- else}}
	for len(it.data) > 0 {
		buf := it.data
	{{- end}}
		var n int
		n, again, err = c.write(buf)
		{{- if .LargeFile}}
		if len(it.data) > 0 {
			it.data = it.data[n:]
		} else {
			it.off += int64(n)
			it.n -= int64(n)
		}
		{{- else}}
		it.data = it.data[n:]
		{{- end}}
		{{- if .Profiling}}
		c.srv.Profile.BytesSent.Add(uint64(n))
		{{- end}}
		{{- if .Idle}}
		c.touch()
		{{- end}}
		if again || err != nil {
			return again, err
		}
	}
	return false, nil
}

// write is the sink under flush. A blocking write{{if .WriteBound}} arms the write deadline for at
// most writeFlushChunk bytes, and one{{end}} that comes up short without an
// error is a failure — the unsent suffix would tear the reply framing.
func (c *Communicator) write(buf []byte) (n int, again bool, err error) {
	{{- if .WriteBound}}
	if len(buf) > writeFlushChunk {
		buf = buf[:writeFlushChunk]
	}
	c.conn.SetWriteDeadline(time.Now().Add({{if .Idle}}writeBound{{else}}writeTimeout{{end}}))
	{{- end}}
	n, err = c.conn.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	return n, false, err
}

{{if .Codec}}
// Reply encodes a reply with the application's Encode hook and sends it.
func (c *Communicator) Reply(reply any) error {
	{{- if .Profiling}}
	encodeStart := time.Now()
	{{- end}}
	data, err := c.encodeSafe(reply)
	{{- if .Profiling}}
	c.srv.Profile.Stages[stageEncode].Observe(time.Since(encodeStart))
	{{- end}}
	if err != nil {
		return err
	}
	return c.Send(data)
}

// encodeSafe isolates a panicking Encode hook: the panic fails this one
// reply instead of killing the worker running the Encode Reply step.
func (c *Communicator) encodeSafe(reply any) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, fmt.Errorf("{{.Package}}: encode panic: %v", r)
		}
	}()
	return c.srv.hooks.Encode(reply)
}
{{end}}

// step applies edge e to the lifecycle word with one CAS loop and
// returns the action the transition requires of the caller.
func (c *Communicator) step(e edge) action {
	for {
		s := c.life.Load()
		if next, act := lifecycle.apply(s, e); next == s || c.life.CompareAndSwap(s, next) {
			return act
		}
	}
}

// closed reports whether the transport is down.
func (c *Communicator) closed() bool { return c.life.Load()>>closeShift&3 >= lifeClosed }

// Close terminates the connection.
func (c *Communicator) Close() {
	c.shutdown(nil)
}

// shutdown closes the transport once and emits the close event, so the
// teardown (deregistration and OnClose) runs on the processing path.
func (c *Communicator) shutdown(cause error) {
	if c.step(edgeTeardown)&actTeardown == 0 {
		return
	}
	c.conn.Close()
	c.{{if .Sharded}}reactor{{else}}srv.reactor{{end}}.emit(ready{kind: readyClose, handle: c.handle, err: cause{{if .Scheduling}}, prio: c.Priority(){{end}}})
}

// readLoop is the Read Request step of a connection served by a reader
// goroutine: blocking reads
// queue copies of the bytes on the inbox, in read order, and each chunk
// wakes the connection (see wake).{{if or .ReadDeadline .Idle}} Each read waits under the one deadline
// that carries every read-side bound (see readDeadline).{{end}}
func (c *Communicator) readLoop() {
	buf := make([]byte, 32*1024)
	for {
		{{- if or .ReadDeadline .Idle}}
		armed := nowNanos()
		c.conn.SetReadDeadline(time.Unix(0, c.readDeadline(armed)))
		{{- end}}
		{{- if .Profiling}}
		readStart := time.Now()
		{{- end}}
		n, err := c.conn.Read(buf)
		if n > 0 {
			{{- if .Profiling}}
			c.srv.Profile.Stages[stageRead].Observe(time.Since(readStart))
			c.srv.Profile.BytesRead.Add(uint64(n))
			{{- end}}
			{{- if .Idle}}
			c.touch()
			{{- end}}
			c.inMu.Lock()
			c.inbox = append(c.inbox, append([]byte(nil), buf[:n]...))
			c.inMu.Unlock()
			c.wake()
		}
		if err != nil {
			{{- if or .ReadDeadline .Idle}}
			// Every bound still ahead (a reply moved since it was armed): re-arm.
			if os.IsTimeout(err) && nowNanos() < c.readDeadline(armed) {
				continue
			}
			{{- end}}
			if err == io.EOF {
				// The peer's EOF ends only the inbound stream: it queues
				// behind the last chunk, and the drain that reaches it
				// closes, so every request sent before it is answered.
				c.step(edgeEOF)
				c.wake()
			} else {
				c.shutdown(nil)
			}
			return
		}
	}
}

// wake runs when inbound bytes are ready: a chunk readLoop queued.{{if .DirectDispatch}} With a FastPath hook installed and the
// overload gate clear, the waking goroutine drains inline, offering each
// decoded request to the hook. Otherwise it{{else}} It{{end}}
// emits the readyRead event a worker drains from.
func (c *Communicator) wake() {
	{{- if .DirectDispatch}}
	if c.srv.FastPath != nil && c.srv.fastGateClear() {
		c.readable(c.srv.tryFastHandle)
		return
	}
	{{- end}}
	c.{{if .Sharded}}reactor{{else}}srv.reactor{{end}}.emit(ready{kind: readyRead, handle: c.handle{{if .Scheduling}}, prio: c.Priority(){{end}}})
}

// handleReady runs the per-connection pipeline steps.
func (c *Communicator) handleReady(rd ready) {
	switch rd.kind {
	case readyRead:
		c.readable({{if .DirectDispatch}}nil{{end}})
	case readyClose:
		if c.step(edgeFinalize)&actDetach != 0 {
			c.srv.detach(c)
			c.srv.hooks.OnClose(c, rd.err)
		}
	}
}

// readable consumes one readiness wakeup (a chunk readLoop queued, or the
// peer's EOF): the one that claims the read gate drains, and one landing
// mid-pass flags another pass for that owner, so no wakeup is lost.
func (c *Communicator) readable({{if .DirectDispatch}}fast func(*Communicator, any) bool{{end}}) {
	if c.step(edgeReadable)&actRun != 0 {
		c.drain({{if .DirectDispatch}}fast{{end}})
	}
}

// drain is the one Read Request{{if .Codec}} → Decode Request{{end}} loop. Its caller owns the
// read gate; each pass takes chunks until none is ready, then releases
// the gate, going around again if a wakeup landed meanwhile. An empty
// inbox behind the peer's EOF closes the connection.{{if .DirectDispatch}} fast is the
// FastPath hook (nil sends every request down the queued Handle path);
// a punt returns with the gate still owned — resumePunted re-enters.{{end}}
func (c *Communicator) drain({{if .DirectDispatch}}fast func(*Communicator, any) bool{{end}}) {
	for {
		for !c.closed() {
			chunk, eof := c.nextChunk()
			if eof {
				c.Close()
			}
			if chunk == nil {
				break
			}
			{{- if .Codec}}
			c.inbuf = append(c.inbuf, chunk...)
			{{- if .DirectDispatch}}
			if c.decodeLoop(fast) {
				return
			}
			{{- else}}
			c.decodeLoop()
			{{- end}}
			{{- if .CapRequest}}
			if len(c.inbuf) > maxRequestBytes {
				c.shutdown(errRequestTooLarge)
				break
			}
			{{- end}}
			{{- else}}
			c.srv.handleRequest(c, chunk)
			{{- end}}
		}
		if c.step(edgeRelease)&actAgain == 0 {
			return
		}
	}
}

// nextChunk returns the next chunk of inbound bytes, or nil when none is
// ready, with eof set once the peer's EOF ended the stream. eof is loaded
// before the inbox is looked at: every chunk queued ahead of it is seen.
func (c *Communicator) nextChunk() (chunk []byte, eof bool) {
	eof = c.life.Load()>>eofShift&1 != 0
	c.inMu.Lock()
	defer c.inMu.Unlock()
	if len(c.inbox) == 0 {
		return nil, eof
	}
	chunk = c.inbox[0]
	c.inbox[0] = nil
	c.inbox = c.inbox[1:]
	return chunk, false
}

{{if .Codec}}
// decodeLoop is the Decode Request step: it dispatches every complete
// request in the decode buffer{{if .DirectDispatch}}, offering each to fast first when it is
// set. The first request fast declines punts, and the report is true{{end}}.
func (c *Communicator) decodeLoop({{if .DirectDispatch}}fast func(*Communicator, any) bool) bool{{else}}){{end}} {
	for {
		{{- if .Profiling}}
		decodeStart := time.Now()
		{{- end}}
		req, n, err := c.decodeSafe()
		{{- if .Profiling}}
		c.srv.Profile.Stages[stageDecode].Observe(time.Since(decodeStart))
		{{- end}}
		if n > 0 {
			c.inbuf = c.inbuf[n:]
			{{- if .DirectDispatch}}
			if fast == nil {
				c.srv.handleRequest(c, req)
			} else if !fast(c, req) {
				return c.punt(req)
			}
			{{- else}}
			c.srv.handleRequest(c, req)
			{{- end}}
		}
		if err != nil {
			c.shutdown(err)
			return{{if .DirectDispatch}} false{{end}}
		}
		if n == 0 || len(c.inbuf) == 0 {
			{{- if .ReadDeadline}}
			// Stamp a partial request's first byte for the read deadline.
			if len(c.inbuf) == 0 {
				c.reqStart.Store(0)
			} else if c.reqStart.Load() == 0 {
				c.reqStart.Store(nowNanos())
			}
			{{- end}}
			return{{if .DirectDispatch}} false{{end}}
		}
	}
}
{{end}}
{{if .DirectDispatch}}
// punt hands a request the FastPath hook declined, plus the rest of the
// drain, to the Event Processor as one event — so overload control
// still observes a queue wait for every request the fast path could not
// finish — and reports whether it was queued. The read gate stays
// claimed across the handoff (edgePunt changes nothing): readiness
// meanwhile only flags another pass, which the continuation's drain
// collects before it releases the gate. A refused continuation (shutdown) tears
// the connection down instead: silently dropping a decoded pipelined
// request would desynchronize it.
func (c *Communicator) punt(req any) bool {
	resume := func() { c.resumePunted(req) }
	err := c.{{if .Sharded}}reactor{{else}}srv.reactor{{end}}.proc.Submit({{if .Scheduling}}PFunc{P: Priority(c.Priority()), F: resume}{{else}}Func(resume){{end}})
	if err != nil {
		c.shutdown(err)
		return false
	}
	return true
}

// resumePunted continues a punted drain on an Event Processor worker: the
// declined request takes the normal Handle path, and the rest of the
// decode buffer and the inbound drain follow in queued mode.
func (c *Communicator) resumePunted(req any) {
	if !c.closed() {
		c.srv.handleRequest(c, req)
		c.decodeLoop(nil)
	}
	c.drain(nil)
}
{{end}}



{{if .Codec}}
// decodeSafe isolates a panicking Decode hook: the panic tears down this
// one connection instead of the event-processing worker running the
// Decode Request step.
func (c *Communicator) decodeSafe() (req any, n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			req, n, err = nil, 0, fmt.Errorf("{{.Package}}: decode panic: %v", r)
		}
	}()
	return c.srv.hooks.Decode(c.inbuf)
}
{{end}}

// ---------------------------------------------------------------------
// Hooks: the application-dependent steps the programmer writes
// ---------------------------------------------------------------------

{{if .Codec -}}
// Hooks are the application hook methods: the Decode Request, Handle
// Request and Encode Reply steps plus connection lifecycle callbacks.
type Hooks interface {
	OnConnect(c *Communicator)
	Decode(buf []byte) (req any, n int, err error)
	Handle(c *Communicator, req any)
	Encode(reply any) ([]byte, error)
	OnClose(c *Communicator, err error)
}
{{- else -}}
// Hooks are the application hook methods: the Handle Request step plus
// connection lifecycle callbacks (no codec steps were generated).
type Hooks interface {
	OnConnect(c *Communicator)
	Handle(c *Communicator, data []byte)
	OnClose(c *Communicator, err error)
}
{{- end}}

// ---------------------------------------------------------------------
// Server (Table 2 rows: Server, Server Component, Acceptor Event Handler,
// Server Configuration)
// ---------------------------------------------------------------------

// Server assembles the generated framework.
type Server struct {
	hooks Hooks
	{{- if .Sharded}}
	// reactors are the {{.Shards}} runtime shards; nextShard places new
	// connections on them round-robin.
	reactors  [{{.Shards}}]*Reactor
	nextShard atomic.Uint64
	{{- else}}
	reactor *Reactor
	{{- end}}
	fileIO *FileIO
	ln      net.Listener
	mu      sync.Mutex
	conns   map[Handle]*Communicator
	done    chan struct{}
	wg      sync.WaitGroup
	{{- if .Scheduling}}
	// PriorityOf assigns the initial priority of new connections.
	PriorityOf func(c *Communicator) int
	{{- end}}
	{{- if .DirectDispatch}}
	// FastPath, when installed before Serve, is offered each decoded
	// request inline while the overload gate is clear, on the goroutine
	// that woke the connection: the
	// connection's reader goroutine (its replies block{{if .WriteDeadline}} under the
	// write deadline{{end}}). Returning true means the request was fully served —
	// reply sent — without touching the event queue; returning false must
	// leave the connection untouched, and the request rides the queued
	// path. The hook must block on nothing but its own reply write.
	FastPath func(c *Communicator, req any) bool
	{{- end}}
	{{- if .Overload}}
	// gate is the O9 admission limiter; marks, its watermark backstop,
	// postpones accepting once a watched queue holds {{.HighWatermark}} events,
	// until every one is back at {{.LowWatermark}} or fewer.
	gate  *Limiter
	marks Overload
	{{- end}}
	{{- if .Profiling}}
	// Profile gathers the generated performance counters.
	Profile Profile
	{{- end}}
	{{- if .Logging}}
	// Log receives application log records.
	Log *log.Logger
	// connSeq issues the connection half of the "c<conn>-r<req>" trace
	// IDs; traceSeen drives the 1-in-traceSampleEvery request sampling.
	connSeq   atomic.Uint64
	traceSeen atomic.Uint64
	{{- end}}
	{{- if .Cache}}
	cache *Cache
	{{- end}}
}

// NewServer builds a server around the application hooks.
func NewServer(hooks Hooks) *Server {
	s := &Server{
		hooks: hooks,
		conns: make(map[Handle]*Communicator),
		done:  make(chan struct{}),
	}
	{{- if .Logging}}
	s.Log = log.New(os.Stderr, "{{.Package}} ", log.LstdFlags)
	{{- end}}
	{{- if .Cache}}
	s.cache = NewCache({{.CacheCapacity}})
	{{- end}}
	{{- if .Sharded}}
	for i := range s.reactors {
		{{- if .Pool}}
		s.reactors[i] = newReactor(newEventProcessor({{.EventThreads}}))
		{{- else}}
		s.reactors[i] = newReactor()
		{{- end}}
	}
	{{- if .Pool}}
	// Wire the shards' processors as stealing peers of one another.
	peers := make([]*EventProcessor, {{.Shards}})
	for i := range s.reactors {
		peers[i] = s.reactors[i].proc
	}
	for _, p := range peers {
		p.peers = peers
	}
	{{- end}}
	{{- else}}
	{{- if .Pool}}
	proc := newEventProcessor({{.EventThreads}})
	s.reactor = newReactor(proc)
	{{- else}}
	s.reactor = newReactor()
	{{- end}}
	{{- end}}
	s.fileIO = &FileIO{proc: newEventProcessor({{.FileIOThreads}}){{if and .Pool .Async (not .Sharded)}}, reactive: proc{{end}}{{if .Cache}}, cache: s.cache{{end}}}
	{{- if and .Pool .Async .Sharded}}
	for i := range s.reactors {
		s.fileIO.reactives[i] = s.reactors[i].proc
	}
	{{- end}}
	{{- if .Overload}}
	s.gate = New(Config{ {{- if .MaxConns}}MaxLimit: {{.MaxConnections}}, {{end}}Inflight: s.activeConns, Backstop: &s.marks})
	// The watermarks were validated with the options: Watch cannot fail.
	{{- if .Pool}}
	{{- if .Sharded}}
	for i := range s.reactors {
		_ = s.marks.Watch("reactive", s.reactors[i].proc, {{.HighWatermark}}, {{.LowWatermark}})
		s.reactors[i].proc.limiter = s.gate
	}
	{{- else}}
	_ = s.marks.Watch("reactive", proc, {{.HighWatermark}}, {{.LowWatermark}})
	proc.limiter = s.gate
	{{- end}}
	{{- end}}
	_ = s.marks.Watch("file-io", s.fileIO.proc, {{.HighWatermark}}, {{.LowWatermark}})
	s.fileIO.proc.limiter = s.gate
	{{- end}}
	return s
}

// FileIO returns the emulated asynchronous file I/O service.
func (s *Server) FileIO() *FileIO { return s.fileIO }

{{if .Cache}}
// Cache returns the generated file cache.
func (s *Server) Cache() *Cache { return s.cache }
{{end}}

// Serve accepts connections from ln until Shutdown.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// ListenAndServe binds addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(ln)
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting, closes connections and joins the machinery.
func (s *Server) Shutdown() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	conns := make([]*Communicator, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.shutdown(nil)
	}
	s.wg.Wait()
	s.fileIO.proc.Stop()
	{{- if .Sharded}}
	for _, r := range s.reactors {
		r.stop()
	}
	{{- else}}
	s.reactor.stop()
	{{- end}}
}

// acceptLoop is the Acceptor Event Handler: accept, wrap in a
// Communicator, register and start the pipeline.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		{{- if .Overload}}
		for !s.gate.AcceptAllowed() {
			select {
			case <-s.done:
				return
			case <-time.After(time.Millisecond):
			}
		}
		{{- end}}
		{{- if .MaxConns}}
		for s.activeConns() >= {{.MaxConnections}} {
			select {
			case <-s.done:
				return
			case <-time.After(time.Millisecond):
			}
		}
		{{- end}}
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		{{- if .Profiling}}
		s.Profile.ConnectionsAccepted.Add(1)
		{{- end}}
		{{- if .Debug}}
		trace("acceptor", fmt.Sprintf("accepted %s", conn.RemoteAddr()))
		{{- end}}
		{{- if .Logging}}
		s.Log.Printf("connection from %s", conn.RemoteAddr())
		{{- end}}
		s.attach(conn)
	}
}

{{if or .MaxConns .Overload}}
func (s *Server) activeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
{{end}}

func (s *Server) attach(conn net.Conn) *Communicator {
	{{- if .Sharded}}
	r := s.reactors[int(s.nextShard.Add(1)-1)%{{.Shards}}]
	c := &Communicator{srv: s, conn: conn, reactor: r, handle: r.newHandle()}
	{{- else}}
	c := &Communicator{srv: s, conn: conn, handle: s.reactor.newHandle()}
	{{- end}}
	{{- if .Logging}}
	c.id = s.connSeq.Add(1)
	{{- end}}
	{{- if .Idle}}
	c.touch()
	{{- end}}
	{{- if .WriteBound}}
	// Cap the socket's unsent bytes at 128 KiB, so a bounded write
	// returns, and counts as progress, while the peer reads steadily.
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			setNotSentLowat(rc, 128<<10)
		}
	}
	{{- end}}
	{{- if .Scheduling}}
	if s.PriorityOf != nil {
		c.SetPriority(s.PriorityOf(c))
	}
	{{- end}}
	s.mu.Lock()
	s.conns[c.handle] = c
	s.mu.Unlock()
	{{if .Sharded}}c.reactor{{else}}s.reactor{{end}}.register(c.handle, c.handleReady)
	s.hooks.OnConnect(c)
	go c.readLoop()
	return c
}



{{if .DirectDispatch}}
// fastGateClear reports whether overload control permits serving a
// request off-queue. During overload every request must ride the event
// queue, where the watermark controller{{if .Overload}} and the admission limiter's
// queue-wait samples{{end}} can see it — eliding the queue under load would
// starve the very signal the shed decision feeds on.
func (s *Server) fastGateClear() bool {
	{{- if .Overload}}
	return s.gate.AcceptAllowed()
	{{- else}}
	return true
	{{- end}}
}

// tryFastHandle offers one decoded request to the FastPath hook with
// panic isolation. It reports whether the request was consumed: true
// means it was served inline (or the hook panicked and the connection
// is torn down — a possibly partial write forbids a retry); false means
// the hook touched nothing and the request belongs to the queued path.
// A fast serve lands in the same request counters and Handle-stage
// histogram as the queued path, plus the direct-dispatch counter.
func (s *Server) tryFastHandle(c *Communicator, req any) (consumed bool) {
	{{- if or .Profiling .Logging}}
	handleStart := time.Now()
	{{- end}}
	defer func() {
		if r := recover(); r != nil {
			consumed = true
			{{- if .Debug}}
			trace("server", fmt.Sprintf("fast-path panic: %v", r))
			{{- end}}
			c.shutdown(fmt.Errorf("{{.Package}}: fast-path panic: %v", r))
		}
	}()
	if !s.FastPath(c, req) {
		return false
	}
	{{- if .Logging}}
	c.reqs.Add(1)
	{{- end}}
	{{- if .Profiling}}
	s.Profile.Stages[stageHandle].Observe(time.Since(handleStart))
	s.Profile.RequestsServed.Add(1)
	s.Profile.DirectDispatched.Add(1)
	{{- end}}
	{{- if .Logging}}
	if s.traceSeen.Add(1)%traceSampleEvery == 0 {
		s.Log.Printf("trace id=%s service=%v fast=1", c.RequestID(), time.Since(handleStart))
	}
	{{- end}}
	return true
}
{{end}}

// Connect is the Connector Event Handler: it initiates an outbound
// connection (the Acceptor-Connector pattern's active half) and delivers
// the wrapped Communicator to done once established. Outbound
// connections run the same pipeline as accepted ones.
func (s *Server) Connect(network, addr string, done func(*Communicator, error)) {
	go func() {
		conn, err := net.Dial(network, addr)
		if err != nil {
			{{- if .Debug}}
			trace("connector", fmt.Sprintf("dial %s failed: %v", addr, err))
			{{- end}}
			{{- if .Logging}}
			s.Log.Printf("connect %s: %v", addr, err)
			{{- end}}
			done(nil, err)
			return
		}
		done(s.attach(conn), nil)
	}()
}

func (s *Server) detach(c *Communicator) {
	s.mu.Lock()
	delete(s.conns, c.handle)
	s.mu.Unlock()
	{{if .Sharded}}c.reactor{{else}}s.reactor{{end}}.deregister(c.handle)
}

{{if .Logging}}
// traceSampleEvery sets the deterministic request-trace sampling rate:
// one structured "trace id=..." line per this many completed requests.
const traceSampleEvery = 128
{{end}}

// handleRequest runs the application's Handle Request hook.
func (s *Server) handleRequest(c *Communicator, req {{if .Codec}}any{{else}}[]byte{{end}}) {
	defer func() {
		if r := recover(); r != nil {
			{{- if .Debug}}
			trace("server", fmt.Sprintf("handler panic: %v", r))
			{{- end}}
			c.shutdown(fmt.Errorf("{{.Package}}: handler panic: %v", r))
		}
	}()
	{{- if .Logging}}
	c.reqs.Add(1)
	{{- end}}
	{{- if or .Profiling .Logging}}
	handleStart := time.Now()
	{{- end}}
	s.hooks.Handle(c, req)
	{{- if .Profiling}}
	s.Profile.Stages[stageHandle].Observe(time.Since(handleStart))
	s.Profile.RequestsServed.Add(1)
	{{- end}}
	{{- if .Logging}}
	if s.traceSeen.Add(1)%traceSampleEvery == 0 {
		s.Log.Printf("trace id=%s service=%v", c.RequestID(), time.Since(handleStart))
	}
	{{- end}}
}
`

const cacheTemplate = `package {{.Package}}

// Generated file cache (option O6): replacement policy {{.PolicyName}},
// capacity {{.CacheCapacity}} bytes. Only the selected policy's victim
// code is generated.

import (
	"container/list"
	"sync"
)

type cacheEntry struct {
	key  string
	data []byte
	{{- if .NeedFreq}}
	freq uint64
	{{- end}}
	{{- if .NeedClock}}
	lastUse uint64
	{{- end}}
	elem *list.Element
}

// Cache is a size-bounded in-memory file cache.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*cacheEntry
	recency  *list.List
	{{- if .NeedClock}}
	clock uint64
	{{- end}}
	{{- if .Profiling}}
	hits, misses uint64
	{{- end}}
}

// NewCache creates a cache of the given byte capacity.
func NewCache(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*cacheEntry),
		recency:  list.New(),
	}
}

// Get returns the cached bytes for key.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		{{- if .Profiling}}
		c.misses++
		{{- end}}
		return nil, false
	}
	{{- if .Profiling}}
	c.hits++
	{{- end}}
	{{- if .NeedFreq}}
	e.freq++
	{{- end}}
	{{- if .NeedClock}}
	c.clock++
	e.lastUse = c.clock
	{{- end}}
	c.recency.MoveToBack(e.elem)
	return e.data, true
}

// Put inserts or replaces the document for key, evicting by the
// {{.PolicyName}} policy until it fits; documents that cannot fit are
// rejected.
func (c *Cache) Put(key string, data []byte) bool {
	size := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.capacity {
		return false
	}
	{{- if .Threshold}}
	if size > {{.CacheThreshold}} {
		return false
	}
	{{- end}}
	if old, ok := c.entries[key]; ok {
		c.used += size - int64(len(old.data))
		old.data = data
		c.recency.MoveToBack(old.elem)
		c.evictToFit(nil)
		return true
	}
	e := &cacheEntry{key: key, data: data}
	{{- if .NeedFreq}}
	e.freq = 1
	{{- end}}
	{{- if .NeedClock}}
	c.clock++
	e.lastUse = c.clock
	{{- end}}
	c.evictToFit(e)
	e.elem = c.recency.PushBack(e)
	c.entries[key] = e
	c.used += size
	return true
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) evictToFit(incoming *cacheEntry) {
	need := c.used
	if incoming != nil {
		need += int64(len(incoming.data))
	}
	for need > c.capacity && len(c.entries) > 0 {
		v := c.victim(incoming)
		need -= int64(len(v.data))
		c.recency.Remove(v.elem)
		delete(c.entries, v.key)
		c.used -= int64(len(v.data))
	}
}

{{if eq .Policy "LRU" -}}
// victim implements LRU: evict the least recently used entry.
func (c *Cache) victim(_ *cacheEntry) *cacheEntry {
	return c.recency.Front().Value.(*cacheEntry)
}
{{- else if eq .Policy "LRU-Threshold" -}}
// victim implements LRU-Threshold: LRU order (admission already refused
// documents above the threshold).
func (c *Cache) victim(_ *cacheEntry) *cacheEntry {
	return c.recency.Front().Value.(*cacheEntry)
}
{{- else if eq .Policy "LFU" -}}
// victim implements LFU: evict the least frequently used entry, ties by
// recency.
func (c *Cache) victim(_ *cacheEntry) *cacheEntry {
	var best *cacheEntry
	for el := c.recency.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if best == nil || e.freq < best.freq {
			best = e
		}
	}
	return best
}
{{- else if eq .Policy "Hyper-G" -}}
// victim implements Hyper-G: least frequency, then least recency, then
// largest size.
func (c *Cache) victim(_ *cacheEntry) *cacheEntry {
	var best *cacheEntry
	for el := c.recency.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if best == nil {
			best = e
			continue
		}
		if e.freq != best.freq {
			if e.freq < best.freq {
				best = e
			}
			continue
		}
		if e.lastUse != best.lastUse {
			if e.lastUse < best.lastUse {
				best = e
			}
			continue
		}
		if len(e.data) > len(best.data) {
			best = e
		}
	}
	return best
}
{{- else if eq .Policy "LRU-MIN" -}}
// victim implements LRU-MIN: evict in LRU order among entries at least as
// large as the incoming document, halving the bound until one qualifies.
func (c *Cache) victim(incoming *cacheEntry) *cacheEntry {
	bound := c.capacity
	if incoming != nil {
		bound = int64(len(incoming.data))
	}
	for ; bound >= 1; bound /= 2 {
		for el := c.recency.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*cacheEntry); int64(len(e.data)) >= bound {
				return e
			}
		}
	}
	return c.recency.Front().Value.(*cacheEntry)
}
{{- else -}}
// victim delegates to the user's hook method (Custom policy).
func (c *Cache) victim(_ *cacheEntry) *cacheEntry {
	if CustomVictim != nil {
		if key := CustomVictim(c.candidates()); key != "" {
			if e, ok := c.entries[key]; ok {
				return e
			}
		}
	}
	return c.recency.Front().Value.(*cacheEntry)
}

// CandidateStat describes one resident entry to the custom victim hook.
type CandidateStat struct {
	Key  string
	Size int64
	Freq uint64
}

// CustomVictim is the user hook method selecting the eviction victim.
var CustomVictim func([]CandidateStat) string

func (c *Cache) candidates() []CandidateStat {
	out := make([]CandidateStat, 0, len(c.entries))
	for el := c.recency.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, CandidateStat{Key: e.key, Size: int64(len(e.data)), Freq: e.freq})
	}
	return out
}
{{- end}}

{{if .Profiling}}
// HitRate returns the cache hit rate for the profiling report.
func (c *Cache) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
{{end}}
`
