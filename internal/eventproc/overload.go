package eventproc

import (
	"fmt"
	"sync"

	"repro/internal/logging"
)

// QueueLenner exposes a queue length to the overload controller. Both
// *Processor and the raw event queues satisfy it.
type QueueLenner interface {
	QueueLen() int
}

// Overload implements the second, watermark-based overload control
// mechanism of option O9:
//
//	"the N-Server is configured to generate code that queries the length
//	of multiple queues. Each queue stores events of certain types. If
//	there is a queue whose length exceeds its specified high watermark,
//	then new connection requests are postponed until the length drops
//	below a specified low watermark."
//
// Monitoring several queues lets the control handle overload caused by
// multiple bottlenecks (CPU and disk). The Acceptor consults AcceptAllowed
// before accepting; hysteresis between the two watermarks prevents accept
// flapping.
type Overload struct {
	mu     sync.Mutex
	queues []watched
	paused bool
	trace  *logging.Trace
}

type watched struct {
	name      string
	q         QueueLenner
	high, low int
}

// NewOverload creates a controller with no watched queues.
func NewOverload(trace *logging.Trace) *Overload {
	return &Overload{trace: trace}
}

// Watch registers a queue with its high and low watermarks. It returns an
// error for invalid watermarks (low must be positive and below high).
func (o *Overload) Watch(name string, q QueueLenner, high, low int) error {
	if q == nil {
		return fmt.Errorf("eventproc: overload watch %q: nil queue", name)
	}
	if low <= 0 || high <= low {
		return fmt.Errorf("eventproc: overload watch %q: need 0 < low < high (got low=%d high=%d)",
			name, low, high)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queues = append(o.queues, watched{name: name, q: q, high: high, low: low})
	return nil
}

// AcceptAllowed reports whether new connections may be accepted right now,
// re-evaluating the watermark state. When not paused, any queue at or above
// its high watermark pauses accepting; when paused, accepting resumes only
// once every queue has drained to or below its low watermark.
func (o *Overload) AcceptAllowed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.queues) == 0 {
		return true
	}
	if o.paused {
		for _, w := range o.queues {
			if w.q.QueueLen() > w.low {
				return false
			}
		}
		o.paused = false
		o.trace.Record("overload", "resumed accepting")
		return true
	}
	for _, w := range o.queues {
		if n := w.q.QueueLen(); n >= w.high {
			o.paused = true
			o.trace.Record("overload", "paused accepting: queue %q length %d >= high %d", w.name, n, w.high)
			return false
		}
	}
	return true
}

// Paused reports the current hysteresis state without re-evaluating.
func (o *Overload) Paused() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.paused
}
