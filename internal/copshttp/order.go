package copshttp

import (
	"sync"

	"repro/internal/httpproto"
	"repro/internal/nserver"
)

// sequencer restores wire order to one connection's pipelined replies.
//
// The framework serializes Handle Request per connection, so requests
// claim sequence numbers in arrival order — but the serve path is
// asynchronous (stat and read hops complete on the reactive pool), so a
// synchronous reply (405, refusal, dynamic content) computed for request
// N+1 can be ready before request N's file completion. HTTP/1.1
// pipelining requires responses in request order (RFC 9112 §9.3.2), so
// every reply passes through here: the reply whose turn it is goes out on
// the zero-copy path and drags any parked successors with it; a reply
// ahead of its turn is rendered into an owned buffer and parked.
//
// The in-turn check costs a mutex acquire and an empty-map lookup per
// reply; nothing on the in-order path allocates (TestHotPathAllocs still
// pins the serve path).
type sequencer struct {
	mu      sync.Mutex
	claimed uint64 // next sequence number to hand out (claim order = request order)
	next    uint64 // sequence number allowed to write now
	closed  bool   // connection tore down; drop instead of parking
	pending map[uint64]*pendingReply

	// memoPath/memoFull cache the last fast-path resolution (request path
	// → filesystem path) so repeat requests for one hot document resolve
	// without allocating. Touched only by FastServe, which runs under
	// the connection's pipeline lock.
	memoPath string
	memoFull string
}

// pendingReply is one parked out-of-turn reply.
type pendingReply struct {
	// head is the owned, pre-rendered response head of a parked buffered
	// reply; body references the response body directly (cache bytes,
	// prebuilt error page, or handler-owned slice — never pooled), so
	// parking never copies the body. The same reference-retention
	// contract already backs the parked write path in nserver, which may
	// hold body slices until EPOLLOUT drains them.
	head  []byte
	body  []byte
	close bool
	// status/bytes/req/rid replay the access-log record at flush time;
	// rid is the request ordinal, formatted only if a logger exists.
	status int
	bytes  int
	req    *httpproto.Request
	rid    uint64
	// turn, when non-nil, marks a parked streaming (large-file) reply:
	// the flusher closes the channel when the turn arrives and the
	// streamer goroutine writes its own bytes and advances the sequence.
	// aborted (set before close) tells the streamer the connection died
	// first.
	turn    chan struct{}
	aborted bool
}

// sequencer returns the connection's reply sequencer, creating it on the
// first request (one allocation per connection, amortized across its
// pipelined requests).
func (s *Server) sequencer(c *nserver.Conn) *sequencer {
	if q, ok := c.UserData().(*sequencer); ok {
		return q
	}
	// handle runs under the per-connection pipeline lock, so first-request
	// creation cannot race another request of the same connection.
	q := &sequencer{pending: make(map[uint64]*pendingReply)}
	c.SetUserData(q)
	return q
}

// claim hands out the next reply turn; handle calls it before any
// asynchronous hop, so claim order is request order.
func (q *sequencer) claim() uint64 {
	q.mu.Lock()
	n := q.claimed
	q.claimed++
	q.mu.Unlock()
	return n
}

// tryFastClaim claims the next reply turn if and only if no earlier
// claim is outstanding: the caller then owns the write turn immediately
// (claim and turn coincide), which is what lets the fast path write
// inline without parking. It fails when any predecessor is still in its
// asynchronous hops — ordering then demands the queued path.
func (q *sequencer) tryFastClaim() bool {
	q.mu.Lock()
	if q.closed || q.claimed != q.next {
		q.mu.Unlock()
		return false
	}
	q.claimed++
	q.mu.Unlock()
	return true
}

// finishFastClaim advances the write turn after a fast-path reply went
// out, flushing any replies that parked behind it in the meantime
// (mirroring sendOrdered's in-turn tail).
func (q *sequencer) finishFastClaim(s *Server, c *nserver.Conn, err error) {
	closeNow := false
	q.mu.Lock()
	q.next++
	if !q.closed {
		q.flushLocked(s, c, &closeNow, err)
	}
	q.mu.Unlock()
	if closeNow {
		c.Close()
	}
}

// sendOrdered delivers one buffered reply in request order. r may be nil
// for replies to undecodable inputs.
func (s *Server) sendOrdered(c *nserver.Conn, q *sequencer, seq uint64, r *httpproto.Request, resp *httpproto.Response) {
	if r != nil {
		resp.Proto = r.Proto
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if seq != q.next {
		// Ahead of turn: render the head into an owned buffer (the caller
		// releases the pooled resp after we return) and park; the body
		// rides along by reference.
		q.pending[seq] = &pendingReply{
			head:   httpproto.AppendResponseHead(nil, resp),
			body:   resp.Body,
			close:  resp.Close,
			status: resp.Status,
			bytes:  len(resp.Body),
			req:    r,
			rid:    c.RequestSeq(),
		}
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	// In turn: only the owner of q.next writes, and q.next does not
	// advance until it finishes, so the zero-copy write needs no lock.
	err := c.Reply(resp)
	s.logAccess(c, r, resp.Status, len(resp.Body), c.RequestSeq())
	closeNow := resp.Close
	q.mu.Lock()
	q.next++
	if !q.closed {
		q.flushLocked(s, c, &closeNow, err)
	}
	q.mu.Unlock()
	if closeNow {
		c.Close()
	}
}

// flushLocked drains contiguous parked replies following q.next. Called
// with q.mu held. closeNow accumulates Connection: close across flushed
// replies — once a closing reply goes out, nothing after it may be
// written; err suppresses further writes once a send failed (the failed
// send already tore the connection down).
func (q *sequencer) flushLocked(s *Server, c *nserver.Conn, closeNow *bool, err error) {
	for {
		p, ok := q.pending[q.next]
		if !ok {
			return
		}
		delete(q.pending, q.next)
		if p.turn != nil {
			// A parked streaming reply takes over from here: wake it (or
			// abort it when the connection is already closing) and let
			// its goroutine advance the sequence after streaming.
			if *closeNow || err != nil {
				p.aborted = true
			}
			close(p.turn)
			return
		}
		if !*closeNow && err == nil {
			err = c.SendBuffers(p.head, p.body)
			s.logAccess(c, p.req, p.status, p.bytes, p.rid)
		}
		*closeNow = *closeNow || p.close
		q.next++
	}
}

// advanceAfterStream is the streaming reply's sequence advance: called
// after ReplyFile returns, it hands the turn to any parked successors.
func (q *sequencer) advanceAfterStream(s *Server, c *nserver.Conn, closeAfter bool, serr error) {
	q.mu.Lock()
	q.next++
	cn := closeAfter
	if !q.closed {
		q.flushLocked(s, c, &cn, serr)
	}
	q.mu.Unlock()
	// A streaming error already tore the connection down; only a clean
	// close-marked stream (or a closing flushed successor) needs it here.
	if serr == nil && cn {
		c.Close()
	}
}

// shutdown runs from the connection's OnClose hook: mark the sequencer
// dead, drop parked buffers, and wake parked streamers so their waiter
// goroutines (and open descriptors) never leak.
func (q *sequencer) shutdown() {
	q.mu.Lock()
	q.closed = true
	pend := q.pending
	q.pending = nil
	q.mu.Unlock()
	for _, p := range pend {
		if p.turn != nil {
			p.aborted = true
			close(p.turn)
		}
	}
}

// logAccess writes the O12 access-log record (common-log-style plus the
// trace ID of request ordinal rid, so a sampled "trace id=..." line and
// its access-log record can be joined). The ID is formatted only when a
// logger exists: with logging off a reply costs no formatting.
func (s *Server) logAccess(c *nserver.Conn, r *httpproto.Request, status, bytes int, rid uint64) {
	if lg := s.ns.Logger(); lg != nil && r != nil {
		lg.Infof("%s \"%s %s %s\" %d %d id=%s",
			c.RemoteAddr(), r.Method, r.Target, r.Proto, status, bytes, nserver.FormatRequestID(c.ID(), rid))
	}
}
