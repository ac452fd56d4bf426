package events

import (
	"fmt"
	"sync"
)

//nsgen:if Scheduling

// PriorityQueue is the queue discipline generated when event scheduling
// (option O8) is on. It implements the paper's starvation-free policy:
//
//	"events of higher priority are processed first. However, each priority
//	level is given a quota. When the quota is exhausted, events of lower
//	priority are processed, so that starvation is avoided."
//
// Scheduling proceeds in cycles. Within a cycle each level i may be served
// at most quota[i] events. Pop serves the highest-priority level that has
// both pending events and remaining quota; when every backlogged level has
// exhausted its quota the cycle ends and all quotas are replenished. Under
// saturation the served rates therefore approach the quota ratios, which is
// exactly the mechanism behind Fig. 5's differentiated service levels,
// while an empty high-priority level immediately yields its cycle share to
// lower levels.
type PriorityQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	levels []levelQueue
	quotas []int
	total  int
	closed bool
}

type levelQueue struct {
	buf    []Event
	head   int
	credit int
}

// popFront removes and returns the level's oldest event, compacting the
// consumed prefix once it dominates the buffer. The caller holds the
// queue lock and has checked the level is non-empty.
func (l *levelQueue) popFront() Event {
	ev := l.buf[l.head]
	l.buf[l.head] = nil
	l.head++
	if l.head > 64 && l.head*2 >= len(l.buf) {
		n := copy(l.buf, l.buf[l.head:])
		for j := n; j < len(l.buf); j++ {
			l.buf[j] = nil
		}
		l.buf = l.buf[:n]
		l.head = 0
	}
	return ev
}

// len returns the level's pending-event count.
func (l *levelQueue) len() int { return len(l.buf) - l.head }

// NewPriorityQueue creates a queue with len(quotas) priority levels; level
// 0 is the highest priority. Each quota must be positive.
func NewPriorityQueue(quotas []int) (*PriorityQueue, error) {
	if len(quotas) < 1 {
		return nil, fmt.Errorf("events: priority queue needs at least one level")
	}
	q := &PriorityQueue{
		levels: make([]levelQueue, len(quotas)),
		quotas: append([]int(nil), quotas...),
	}
	for i, quota := range quotas {
		if quota <= 0 {
			return nil, fmt.Errorf("events: quota[%d] = %d, must be positive", i, quota)
		}
		q.levels[i].credit = quota
	}
	q.cond = sync.NewCond(&q.mu)
	return q, nil
}

// Push enqueues an event at its own priority. Priorities outside
// [0, Levels) are clamped to the nearest level.
func (q *PriorityQueue) Push(ev Event) error {
	lvl := int(ev.Priority())
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= len(q.levels) {
		lvl = len(q.levels) - 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.levels[lvl].buf = append(q.levels[lvl].buf, ev)
	q.total++
	q.cond.Signal()
	return nil
}

// Pop blocks for the next event under the quota discipline.
func (q *PriorityQueue) Pop() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.total == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	return q.popLocked(), true
}

//nsgen:if Sharded

// TryPop dequeues without blocking.
func (q *PriorityQueue) TryPop() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.total == 0 {
		return nil, false
	}
	return q.popLocked(), true
}

//nsgen:end

func (q *PriorityQueue) popLocked() Event {
	for {
		for i := range q.levels {
			l := &q.levels[i]
			if l.len() > 0 && l.credit > 0 {
				l.credit--
				q.total--
				return l.popFront()
			}
		}
		// Every backlogged level has exhausted its quota: start a new
		// scheduling cycle. q.total > 0 guarantees progress.
		for i := range q.levels {
			q.levels[i].credit = q.quotas[i]
		}
	}
}

// Len returns the total number of queued events across all levels.
func (q *PriorityQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Close closes the queue, waking all blocked Pops.
func (q *PriorityQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

//nsgen:runtime

// Levels returns the number of priority levels.
func (q *PriorityQueue) Levels() int { return len(q.levels) }

// LevelLen returns the number of queued events at one priority level.
func (q *PriorityQueue) LevelLen(level int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if level < 0 || level >= len(q.levels) {
		return 0
	}
	return q.levels[level].len()
}

// NewQueue returns the queue discipline matching the scheduling option:
// a PriorityQueue with the given quotas when scheduling is enabled, a FIFO
// otherwise. This mirrors the template's generation-time substitution of
// "a normal event queue in an Event Processor by a priority queue".
func NewQueue(scheduling bool, quotas []int) (Queue, error) {
	if !scheduling {
		return NewFIFO(), nil
	}
	return NewPriorityQueue(quotas)
}

//nsgen:end

//nsgen:end
