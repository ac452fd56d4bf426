// Package events defines the event model shared by the N-Server framework
// components: the Event interface carried between the Event Dispatcher and
// the Event Processors, completion events with asynchronous completion
// tokens (the ACT pattern of Harrison & Schmidt), and the two queue
// disciplines the template can generate — a plain FIFO queue, and the
// quota-based priority queue woven in when event scheduling (option O8) is
// selected.
package events

import (
	"fmt"
	"sync/atomic"
)

//nsgen:if Scheduling

// Priority orders events when event scheduling is enabled. Zero is the
// highest priority; larger values are served later. When scheduling is
// disabled the framework ignores priorities entirely (the priority field is
// not even generated into the Event class — Table 2, O8 column).
type Priority int

// DefaultPriority is the priority assigned to events whose source does not
// set one.
const DefaultPriority Priority = 0

//nsgen:end

// Event is one unit of work queued to an Event Processor. Concrete events
// bind application or framework behaviour into Process; the Event Processor
// workers simply pop events and invoke Process.
type Event interface {
	// Process performs the event's work on the calling worker.
	Process()

	//nsgen:if Scheduling

	// Priority returns the event's scheduling priority (0 = highest).
	Priority() Priority
	//nsgen:end
}

// Func adapts a closure to the Event interface.
type Func func()

// Process runs the closure.
func (f Func) Process() { f() }

//nsgen:if Scheduling

// Priority returns DefaultPriority.
func (Func) Priority() Priority { return DefaultPriority }

// PFunc adapts a closure to the Event interface at an explicit priority.
type PFunc struct {
	P Priority
	F func()
}

// Process runs the closure.
func (p PFunc) Process() { p.F() }

// Priority returns the assigned priority.
func (p PFunc) Priority() Priority { return p.P }

//nsgen:end

//nsgen:if Async

// tokenIDs issues process-unique completion token identifiers.
var tokenIDs atomic.Uint64

// Token is an Asynchronous Completion Token: an opaque identifier created
// when an asynchronous operation is issued and handed back verbatim with
// the operation's completion, letting the initiator efficiently re-associate
// the response with the action to perform. State carries the initiator's
// context (typically the Communicator for the connection that issued the
// operation).
type Token struct {
	ID    uint64
	State any
}

// NewToken creates a token with a unique ID carrying the given state.
func NewToken(state any) Token {
	return Token{ID: tokenIDs.Add(1), State: state}
}

// Completion is a Completion Event: the result of an emulated asynchronous
// operation, posted back to the reactive Event Processor when option O4
// selects asynchronous completions. The bound continuation is invoked with
// the token, result and error when the event is processed.
type Completion struct {
	Token  Token
	Result any
	Err    error

	//nsgen:if Scheduling

	Prio Priority
	//nsgen:end

	// Done is the continuation encapsulating the application-specific
	// handling of the completed operation (the Completion Handler of the
	// Proactor pattern).
	Done func(Token, any, error)
}

// Process invokes the completion handler.
func (c *Completion) Process() {
	if c.Done != nil {
		c.Done(c.Token, c.Result, c.Err)
	}
}

//nsgen:if Scheduling

// Priority returns the completion's scheduling priority.
func (c *Completion) Priority() Priority { return c.Prio }

//nsgen:end

//nsgen:runtime

// String describes the completion for debug traces.
func (c *Completion) String() string {
	return fmt.Sprintf("completion{token=%d err=%v prio=%d}", c.Token.ID, c.Err, c.Prio)
}

//nsgen:end

//nsgen:end
