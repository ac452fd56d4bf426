// Package reactor implements the event demultiplexing and dispatching core
// of the N-Server: the Reactor pattern (Schmidt 1995), extended as the
// paper describes with (1) a decorator-based Event Source component that
// manages multiple event sources and handler registration, and (2) an
// optional Event Processor so ready events are processed by a thread pool
// instead of the dispatcher thread itself (the extension that lets the
// server use multiple processors).
//
// In the original pattern the Event Dispatcher blocks in select/poll on OS
// handles and passes each ready event on. Go does not expose readiness
// polling portably, and nothing here needs to poll: a producer (accept
// loop, per-connection reader, teardown, emulated-async-I/O completion)
// already knows its event is ready. It calls Reactor.Emit, which routes
// the event through the registry — a handle's Event Handler, else its
// type's — straight into the Event Processor's queue when there is one
// (O2 = Yes). Without a processor the event queues on the Event Source
// and the dispatcher threads run the handler inline, the classic Reactor.
// The Source queue and the dispatcher threads also carry the events
// pushed onto the decorator chain itself, such as a TimerSource's timers.
package reactor

import (
	"fmt"

	"repro/internal/events"
)

// Handle identifies an event endpoint (a connection, listener or timer) —
// the Handle participant of the Reactor pattern.
type Handle uint64

// EventType classifies ready events.
type EventType int

// Ready event types.
const (
	// AcceptReady: a new connection is established; Data is the accepted
	// transport (net.Conn).
	AcceptReady EventType = iota
	// ReadReady: inbound bytes arrived; Data carries them in a form
	// agreed between emitter and handler.
	ReadReady
	// TimerReady: a registered timer fired; Data is the timer payload.
	TimerReady
	// CompletionReady: an emulated asynchronous operation finished; Data
	// is the *events.Completion.
	CompletionReady
	// UserReady: an application-defined event; Data is application-owned.
	UserReady
	// CloseReady: the peer closed or the transport failed; Data is the
	// error (possibly nil for clean EOF).
	CloseReady
	// PollReady: the handle has inbound bytes to drain — its reader
	// goroutine queued a chunk. The handler drains until the source runs
	// dry. Data is nil: the bytes stay where they are until the drain
	// takes them.
	PollReady
)

func (t EventType) String() string {
	switch t {
	case AcceptReady:
		return "accept"
	case ReadReady:
		return "read"
	case TimerReady:
		return "timer"
	case CompletionReady:
		return "completion"
	case UserReady:
		return "user"
	case CloseReady:
		return "close"
	case PollReady:
		return "poll"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// Ready is one demultiplexed ready event, as delivered from an Event
// Source to the Event Dispatcher.
type Ready struct {
	Type   EventType
	Handle Handle
	Data   any
	// Prio is the scheduling priority used when event scheduling (O8) is
	// enabled; sources without priority knowledge leave it zero.
	Prio events.Priority
}

func (r Ready) String() string {
	return fmt.Sprintf("ready{%s handle=%d prio=%d}", r.Type, r.Handle, r.Prio)
}

// Handler is the Event Handler participant: application or framework logic
// bound to a handle (or to an event type) through the registry.
type Handler interface {
	HandleReady(Ready)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Ready)

// HandleReady calls the function.
func (f HandlerFunc) HandleReady(r Ready) { f(r) }
