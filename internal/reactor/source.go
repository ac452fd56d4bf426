package reactor

import (
	"errors"
	"sync"
	"time"
)

// Source is the Event Source component of the N-Server. It complies with
// the Decorator pattern: concrete sources and decorators share this
// interface, so new kinds of event sources can be layered onto an existing
// chain without changing the reactor. Emit pushes ready events (a
// TimerSource's timers, and Reactor.Emit without an Event Processor); the
// Event Dispatcher consumes them with Next.
type Source interface {
	// Name labels the source in traces.
	Name() string
	// Emit queues a ready event. It returns ErrSourceClosed after Close.
	Emit(Ready) error
	// Next blocks for the next ready event; ok=false after the source is
	// closed and drained.
	Next() (r Ready, ok bool)
	// Pending returns the number of queued ready events.
	Pending() int
	// Close shuts the source; queued events may still be consumed.
	Close()
}

// ErrSourceClosed is returned by Emit after Close.
var ErrSourceClosed = errors.New("reactor: event source closed")

// BasicSource is the concrete Event Source: an unbounded ready-event queue
// safe for any number of producers and consumers.
type BasicSource struct {
	name   string
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Ready
	head   int
	closed bool
}

// NewBasicSource creates an empty source.
func NewBasicSource(name string) *BasicSource {
	s := &BasicSource{name: name}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Name implements Source.
func (s *BasicSource) Name() string { return s.name }

// Emit implements Source.
func (s *BasicSource) Emit(r Ready) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSourceClosed
	}
	s.buf = append(s.buf, r)
	s.cond.Signal()
	return nil
}

// Next implements Source.
func (s *BasicSource) Next() (Ready, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == s.head {
		if s.closed {
			return Ready{}, false
		}
		s.cond.Wait()
	}
	r := s.buf[s.head]
	s.buf[s.head] = Ready{}
	s.head++
	if s.head > 64 && s.head*2 >= len(s.buf) {
		n := copy(s.buf, s.buf[s.head:])
		s.buf = s.buf[:n]
		s.head = 0
	}
	return r, true
}

// Pending implements Source.
func (s *BasicSource) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf) - s.head
}

// Close implements Source.
func (s *BasicSource) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// TimerSource is a decorator adding timer events to an event source chain
// (timers are one of the multiple event sources the paper's Event Source
// component manages). Timers fire as TimerReady events on the wrapped
// source.
type TimerSource struct {
	Source
	mu     sync.Mutex
	timers map[Handle]*time.Timer
	nextID Handle
	closed bool
}

// timerHandleBase keeps timer handles disjoint from the reactor's
// connection/listener handle space, so a TimerReady event can never be
// routed to a per-connection handler that happens to share the number.
const timerHandleBase Handle = 1 << 48

// NewTimerSource wraps inner with timer support.
func NewTimerSource(inner Source) *TimerSource {
	return &TimerSource{
		Source: inner,
		timers: make(map[Handle]*time.Timer),
		nextID: timerHandleBase,
	}
}

// After schedules a TimerReady event carrying data after d. The returned
// handle identifies the timer event and may cancel it.
func (s *TimerSource) After(d time.Duration, data any) Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	s.nextID++
	id := s.nextID
	s.timers[id] = time.AfterFunc(d, func() {
		s.mu.Lock()
		delete(s.timers, id)
		s.mu.Unlock()
		_ = s.Source.Emit(Ready{Type: TimerReady, Handle: id, Data: data})
	})
	return id
}

// Cancel stops a pending timer; it reports whether the timer was still
// pending.
func (s *TimerSource) Cancel(id Handle) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.timers[id]
	if !ok {
		return false
	}
	delete(s.timers, id)
	return t.Stop()
}

// Close cancels all pending timers and closes the wrapped source.
func (s *TimerSource) Close() {
	s.mu.Lock()
	s.closed = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	s.mu.Unlock()
	s.Source.Close()
}
