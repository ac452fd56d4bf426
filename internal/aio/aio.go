// Package aio emulates non-blocking file I/O for the N-Server framework.
//
// Event-driven concurrency requires every operation to be non-blocking,
// but (as the paper notes for Java 1.3/1.4) portable non-blocking file I/O
// is not available, so the N-Server emulates it: blocking file operations
// are queued to a dedicated Event Processor whose workers perform them,
// following the Proactor pattern. Completion is reported either
// synchronously — the worker invokes the continuation inline (COPS-FTP's
// O4 setting) — or asynchronously, by posting a Completion Event that
// carries an Asynchronous Completion Token back to the reactive Event
// Processor (COPS-HTTP's setting), where it is processed like any other
// ready event.
//
// When a file cache (option O6) is attached, reads are served through it:
// hits complete immediately without touching the file-I/O queue, and
// misses populate the cache on completion, which is exactly the structure
// that makes COPS-HTTP's disk path cheap under SpecWeb-like locality.
package aio

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/eventproc"
	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/options"
	"repro/internal/profiling"
)

// Sink accepts completion events for asynchronous delivery; it is
// typically the reactive Event Processor's Submit method.
type Sink func(events.Event) error

// Config configures the async file I/O service.
type Config struct {
	// Workers is the size of the file-I/O worker pool.
	Workers int
	// Mode selects synchronous or asynchronous completion (option O4).
	Mode options.CompletionMode
	// Sink receives Completion Events in asynchronous mode. Required for
	// AsynchronousCompletion, ignored otherwise.
	Sink Sink
	// Cache, when non-nil, serves and stores reads (option O6).
	Cache *cache.Cache
	// Profile receives cache hit/miss counts (nil when O11 is off).
	Profile *profiling.Profile
	// WaitObserver receives sampled file-I/O queue waits (the adaptive
	// admission limiter's disk-bottleneck signal); nil when unused.
	WaitObserver func(time.Duration)
	// Trace receives internal events in debug mode.
	Trace *logging.Trace
}

// Service performs emulated asynchronous file operations.
type Service struct {
	proc    *eventproc.Processor
	mode    options.CompletionMode
	sink    Sink
	cache   *cache.Cache
	profile *profiling.Profile
	trace   *logging.Trace

	// Singleflight state for cache-miss reads: while a read of a path is
	// in flight, later misses of the same path join its waiter list
	// instead of queueing their own disk read, so a thundering herd on a
	// cold key costs exactly one file-I/O operation. Only reads through
	// the cache collapse — without a cache every read is an independent
	// operation by contract.
	flightMu  sync.Mutex
	flights   map[string][]flightWaiter
	collapsed atomic.Uint64
	diskReads atomic.Uint64
}

// flightWaiter is one collapsed read's completion routing: the token,
// priority and continuation of a ReadFile call that joined an in-flight
// read instead of submitting its own.
type flightWaiter struct {
	tok  events.Token
	prio events.Priority
	done Done
}

// ErrNoSink is returned by New when asynchronous completion is selected
// without a completion sink.
var ErrNoSink = errors.New("aio: asynchronous completion requires a sink")

// New validates cfg and creates the service. Call Start before issuing
// operations.
func New(cfg Config) (*Service, error) {
	if cfg.Mode == options.AsynchronousCompletion && cfg.Sink == nil {
		return nil, ErrNoSink
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("aio: workers must be positive (got %d)", cfg.Workers)
	}
	proc, err := eventproc.New(eventproc.Config{
		Name:         "file-io",
		Workers:      cfg.Workers,
		Profile:      cfg.Profile,
		WaitObserver: cfg.WaitObserver,
		Trace:        cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Service{
		proc:    proc,
		mode:    cfg.Mode,
		sink:    cfg.Sink,
		cache:   cfg.Cache,
		profile: cfg.Profile,
		trace:   cfg.Trace,
		flights: make(map[string][]flightWaiter),
	}, nil
}

// Start launches the file-I/O worker pool.
func (s *Service) Start() { s.proc.Start() }

// Stop drains and stops the pool.
func (s *Service) Stop() { s.proc.Stop() }

// QueueLen exposes the file-I/O event queue length to the overload
// controller (the "disk" bottleneck queue of option O9).
func (s *Service) QueueLen() int { return s.proc.QueueLen() }

// Done is the completion continuation for a read: it receives the token
// issued at submission, the data (nil on error) and the operation error.
type Done func(tok events.Token, data []byte, err error)

// fileReadEvent is the generated framework's File Read Event: the queued
// representation of one emulated asynchronous read.
type fileReadEvent struct {
	svc  *Service
	path string
	tok  events.Token
	prio events.Priority
	done Done
}

// Process performs the blocking read on a file-I/O worker and fans the
// result out to the leader and every waiter collapsed onto this flight.
func (e *fileReadEvent) Process() {
	e.svc.diskReads.Add(1)
	data, err := os.ReadFile(e.path)
	if err == nil && e.svc.cache != nil {
		e.svc.cache.Put(e.path, data)
	}
	waiters := e.svc.takeFlight(e.path)
	e.svc.complete(e.tok, e.prio, e.done, data, err)
	for _, w := range waiters {
		e.svc.complete(w.tok, w.prio, w.done, data, err)
	}
}

// Priority implements events.Event.
func (e *fileReadEvent) Priority() events.Priority { return e.prio }

// fileStatEvent is the File Open Event analogue: it resolves file
// metadata without reading contents.
type fileStatEvent struct {
	svc  *Service
	path string
	tok  events.Token
	prio events.Priority
	done func(tok events.Token, info os.FileInfo, err error)
}

// Process stats the file on a file-I/O worker.
func (e *fileStatEvent) Process() {
	info, err := os.Stat(e.path)
	if e.svc.mode == options.SynchronousCompletion {
		e.done(e.tok, info, err)
		return
	}
	ev := &events.Completion{
		Token: e.tok, Result: info, Err: err, Prio: e.prio,
		Done: func(tok events.Token, res any, err error) {
			info, _ := res.(os.FileInfo)
			e.done(tok, info, err)
		},
	}
	if serr := e.svc.sink(ev); serr != nil {
		e.svc.trace.Record("file-io", "completion sink closed: %v", serr)
	}
}

// Priority implements events.Event.
func (e *fileStatEvent) Priority() events.Priority { return e.prio }

// OpenDone is the completion continuation for Open: it receives the
// submission token, an open descriptor with its metadata (nil on error)
// and the operation error. Ownership of the descriptor passes to the
// continuation, which must close it.
type OpenDone func(tok events.Token, f *os.File, info os.FileInfo, err error)

// openResult carries the descriptor and its metadata through the
// Completion Event's single Result slot.
type openResult struct {
	f    *os.File
	info os.FileInfo
}

// fileOpenEvent is the File Open Event proper: it opens the file and
// resolves its metadata without reading contents, so the completion can
// stream the body straight off the descriptor.
type fileOpenEvent struct {
	svc  *Service
	path string
	tok  events.Token
	prio events.Priority
	done OpenDone
}

// Process opens and stats the file on a file-I/O worker.
func (e *fileOpenEvent) Process() {
	f, err := os.Open(e.path)
	var info os.FileInfo
	if err == nil {
		if info, err = f.Stat(); err != nil {
			f.Close()
			f = nil
		}
	}
	if e.svc.mode == options.SynchronousCompletion {
		e.done(e.tok, f, info, err)
		return
	}
	ev := &events.Completion{
		Token: e.tok, Result: openResult{f: f, info: info}, Err: err, Prio: e.prio,
		Done: func(tok events.Token, res any, err error) {
			r, _ := res.(openResult)
			e.done(tok, r.f, r.info, err)
		},
	}
	if serr := e.svc.sink(ev); serr != nil {
		// The completion sink is gone (shutdown): the continuation will
		// never run, so the descriptor must be closed here or it leaks.
		if f != nil {
			f.Close()
		}
		e.svc.trace.Record("file-io", "completion sink closed: %v", serr)
	}
}

// Priority implements events.Event.
func (e *fileOpenEvent) Priority() events.Priority { return e.prio }

// ReadFile issues an emulated asynchronous read of path. The returned
// token identifies the operation; the same token is handed to done on
// completion. Cache hits (when a cache is attached) complete without
// queueing to the file-I/O pool — still through the configured completion
// path, so callers observe a single completion discipline.
func (s *Service) ReadFile(path string, state any, prio events.Priority, done Done) (events.Token, error) {
	tok := events.NewToken(state)
	if start := s.profile.StageStart(); !start.IsZero() {
		// O11: measure submission-to-completion latency on the sampled
		// lattice. Cache hits are included (near-zero), so the histogram
		// shows the hit/miss split.
		inner := done
		done = func(tok events.Token, data []byte, err error) {
			s.profile.ObserveSince(profiling.StageAIOComplete, start)
			inner(tok, data, err)
		}
	}
	if s.cache != nil {
		if data, ok := s.cache.Get(path); ok {
			s.profile.Add(profiling.CacheHits, 1)
			s.trace.Record("file-io", "cache hit %s (token %d)", path, tok.ID)
			s.complete(tok, prio, done, data, nil)
			return tok, nil
		}
		s.profile.Add(profiling.CacheMisses, 1)
		// Singleflight: join an in-flight read of the same path instead
		// of queueing a duplicate disk read.
		s.flightMu.Lock()
		if waiters, inflight := s.flights[path]; inflight {
			s.flights[path] = append(waiters, flightWaiter{tok: tok, prio: prio, done: done})
			s.flightMu.Unlock()
			s.collapsed.Add(1)
			s.trace.Record("file-io", "read collapsed onto flight %s (token %d)", path, tok.ID)
			return tok, nil
		}
		s.flights[path] = []flightWaiter{}
		s.flightMu.Unlock()
		err := s.proc.Submit(&fileReadEvent{svc: s, path: path, tok: tok, prio: prio, done: done})
		if err != nil {
			// The queue is closed: the read will never run, so fail every
			// waiter that joined between the mark and here. The leader's
			// error returns to its caller as usual.
			for _, w := range s.takeFlight(path) {
				s.complete(w.tok, w.prio, w.done, nil, err)
			}
		}
		return tok, err
	}
	err := s.proc.Submit(&fileReadEvent{svc: s, path: path, tok: tok, prio: prio, done: done})
	return tok, err
}

// takeFlight removes and returns the waiter list for path.
func (s *Service) takeFlight(path string) []flightWaiter {
	s.flightMu.Lock()
	waiters := s.flights[path]
	delete(s.flights, path)
	s.flightMu.Unlock()
	return waiters
}

// CollapsedReads returns the number of cache-miss reads that joined an
// already in-flight read of the same path instead of hitting the disk.
func (s *Service) CollapsedReads() uint64 { return s.collapsed.Load() }

// DiskReads returns the number of file reads actually performed by the
// worker pool.
func (s *Service) DiskReads() uint64 { return s.diskReads.Load() }

// Open issues an emulated asynchronous open+stat of path: the large-file
// analogue of ReadFile, where the completion token carries an open
// descriptor instead of bytes so the caller can stream the content
// without ever buffering it. Opens bypass the cache by design — the
// admission cap would refuse the bytes anyway — and the continuation owns
// (and must close) the descriptor.
func (s *Service) Open(path string, state any, prio events.Priority, done OpenDone) (events.Token, error) {
	tok := events.NewToken(state)
	if start := s.profile.StageStart(); !start.IsZero() {
		inner := done
		done = func(tok events.Token, f *os.File, info os.FileInfo, err error) {
			s.profile.ObserveSince(profiling.StageAIOComplete, start)
			inner(tok, f, info, err)
		}
	}
	err := s.proc.Submit(&fileOpenEvent{svc: s, path: path, tok: tok, prio: prio, done: done})
	return tok, err
}

// Stat issues an emulated asynchronous stat of path.
func (s *Service) Stat(path string, state any, prio events.Priority,
	done func(tok events.Token, info os.FileInfo, err error)) (events.Token, error) {
	tok := events.NewToken(state)
	if start := s.profile.StageStart(); !start.IsZero() {
		inner := done
		done = func(tok events.Token, info os.FileInfo, err error) {
			s.profile.ObserveSince(profiling.StageAIOComplete, start)
			inner(tok, info, err)
		}
	}
	err := s.proc.Submit(&fileStatEvent{svc: s, path: path, tok: tok, prio: prio, done: done})
	return tok, err
}

// complete routes a read result through the O4 completion discipline.
func (s *Service) complete(tok events.Token, prio events.Priority, done Done, data []byte, err error) {
	if s.mode == options.SynchronousCompletion {
		done(tok, data, err)
		return
	}
	ev := &events.Completion{
		Token: tok, Result: data, Err: err, Prio: prio,
		Done: func(tok events.Token, res any, err error) {
			data, _ := res.([]byte)
			done(tok, data, err)
		},
	}
	if serr := s.sink(ev); serr != nil {
		s.trace.Record("file-io", "completion sink closed: %v", serr)
	}
}
