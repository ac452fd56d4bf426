package events

import (
	"errors"
	"sync"
)

// ErrClosed is returned by Push after a queue has been closed.
var ErrClosed = errors.New("events: queue closed")

//nsgen:runtime

// Queue is the event queue inside an Event Processor. Push never blocks
// (the queues are unbounded, as in the paper — overload is handled by the
// watermark mechanism of option O9, not by bounding the queue). Pop blocks
// until an event is available or the queue is closed and drained.
type Queue interface {
	// Push enqueues an event. It returns ErrClosed after Close.
	Push(Event) error
	// Pop dequeues the next event according to the queue's discipline,
	// blocking if the queue is empty. It returns ok=false once the queue
	// is closed and fully drained.
	Pop() (ev Event, ok bool)
	// TryPop dequeues without blocking; ok=false means empty or drained.
	TryPop() (ev Event, ok bool)
	// Len returns the number of queued events (the quantity the O9
	// watermarks sample).
	Len() int
	// Close marks the queue closed. Queued events may still be popped.
	Close()
}

//nsgen:end

//nsgen:if !Scheduling

// FIFO is the queue discipline generated when event scheduling (O8) is off:
// a plain first-in first-out queue. It is safe for concurrent use.
type FIFO struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Event
	head   int
	closed bool
}

// NewFIFO creates an empty FIFO queue.
func NewFIFO() *FIFO {
	q := &FIFO{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues an event.
func (q *FIFO) Push(ev Event) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.buf = append(q.buf, ev)
	q.cond.Signal()
	return nil
}

// Pop blocks for the next event in arrival order.
func (q *FIFO) Pop() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == q.head {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	return q.popLocked(), true
}

//nsgen:if Sharded

// TryPop returns the next event if one is queued.
func (q *FIFO) TryPop() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) == q.head {
		return nil, false
	}
	return q.popLocked(), true
}

//nsgen:end

func (q *FIFO) popLocked() Event {
	ev := q.buf[q.head]
	q.buf[q.head] = nil // allow the event to be collected
	q.head++
	// Reclaim the consumed prefix once it dominates the buffer.
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return ev
}

// Len returns the number of queued events.
func (q *FIFO) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// Close closes the queue, waking all blocked Pops.
func (q *FIFO) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

//nsgen:end
