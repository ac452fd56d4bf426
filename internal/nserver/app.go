// Package nserver is the N-Server framework runtime: the library
// equivalent of the code the CO2P3S template generates once the twelve
// options of Table 1 are fixed.
//
// The framework owns everything the paper calls "the hard parts": the
// Reactor with its Event Source chain and dispatcher threads (O1), the
// reactive Event Processor (O2), connection establishment through the
// Acceptor-Connector (with O9 overload gating), the per-connection
// five-step request pipeline of Fig. 1 — Read Request, Decode Request,
// Handle Request, Encode Reply, Send Reply — emulated asynchronous file
// I/O with completion tokens (O4), the file cache (O6), idle shutdown
// (O7), priority scheduling (O8), profiling (O11), and logging/debug
// tracing (O10/O12).
//
// The application supplies only the three application-dependent steps as
// sequential hook methods: a Codec (Decode Request / Encode Reply, elided
// when O3 is No, Fig. 2) and an App (Handle Request plus connection
// lifecycle hooks). This file defines those hook interfaces.
package nserver

import (
	"repro/internal/events"
)

// Codec supplies the Decode Request and Encode Reply steps (option O3).
// When the server is configured without a codec the pipeline runs the
// Fig. 2 structural variation: Handle receives raw []byte chunks and
// Reply sends raw []byte.
type Codec interface {
	// Decode attempts to extract one complete request from buf, which
	// accumulates raw bytes read from the connection. It returns the
	// decoded request and the number of bytes consumed; n == 0 means the
	// buffer does not yet hold a complete request. A non-nil error
	// terminates the connection after any decoded request is processed.
	Decode(buf []byte) (req any, n int, err error)
	// Encode renders one reply produced by the Handle Request step into
	// the bytes to send.
	Encode(reply any) ([]byte, error)
}

// BufferEncoder is an optional extension of Codec for zero-copy replies.
// When the configured codec implements it, the Send Reply step renders the
// reply head into a pooled buffer with AppendHead and transmits head and
// body as separate segments (one writev on TCP) instead of combining them
// through Encode. body is sent as-is and must remain valid until Reply
// returns; dst is framework-owned pooled memory that the implementation
// must only append to.
type BufferEncoder interface {
	AppendHead(dst []byte, reply any) (head, body []byte, err error)
}

// App supplies the Handle Request step and the connection lifecycle hooks.
// All methods are invoked on Event Processor workers (or dispatcher
// threads when O2 is No); the framework serializes calls per connection,
// so hooks never run concurrently for the same Conn.
type App interface {
	// OnConnect runs once when a connection is established (after the
	// Acceptor Event Handler wraps it in a Communicator). Servers with a
	// greeting protocol (FTP's "220 ready") send it here.
	OnConnect(c *Conn)
	// Handle processes one request: the decoded value from Codec.Decode,
	// or a raw []byte chunk when the server has no codec. Replies are
	// sent with c.Reply (encoded) or c.Send (raw); handlers may also
	// complete asynchronously, e.g. from an aio completion.
	Handle(c *Conn, req any)
	// OnClose runs once when the connection ends; err is nil for a clean
	// peer close.
	OnClose(c *Conn, err error)
}

// AppFuncs adapts plain functions to the App interface; nil fields are
// no-ops.
type AppFuncs struct {
	Connect func(c *Conn)
	Request func(c *Conn, req any)
	Close   func(c *Conn, err error)
}

// OnConnect implements App.
func (a AppFuncs) OnConnect(c *Conn) {
	if a.Connect != nil {
		a.Connect(c)
	}
}

// Handle implements App.
func (a AppFuncs) Handle(c *Conn, req any) {
	if a.Request != nil {
		a.Request(c, req)
	}
}

// OnClose implements App.
func (a AppFuncs) OnClose(c *Conn, err error) {
	if a.Close != nil {
		a.Close(c, err)
	}
}

// PriorityFunc is the event-scheduling hook (option O8): it assigns the
// initial scheduling priority of a new connection, typically from its
// remote address (the paper's ISP experiment classifies by client IP with
// 13 added lines). Handlers may later adjust it with Conn.SetPriority.
type PriorityFunc func(c *Conn) events.Priority
