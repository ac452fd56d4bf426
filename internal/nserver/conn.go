package nserver

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/events"
	"repro/internal/profiling"
	"repro/internal/reactor"
)

// ErrConnClosed is returned by Send/Reply on a closed connection.
var ErrConnClosed = errors.New("nserver: connection closed")

// ErrRequestTooLarge tears down a connection whose undecoded remainder —
// the partial request a decode pass leaves buffered — exceeds the
// configured MaxRequestBytes cap.
var ErrRequestTooLarge = errors.New("nserver: request exceeds MaxRequestBytes")

// ErrSlowClient tears down a connection whose partial request outlived
// the ReadTimeout request-assembly budget (the slowloris defense).
var ErrSlowClient = errors.New("nserver: request assembly exceeded ReadTimeout")

// readChunkSize is the buffer size of the framework's Read Request step.
const readChunkSize = 32 << 10

// maxInboxChunks bounds the inbox: readLoop leases no further chunk while
// this many wait undrained, so a peer pipelining behind a slow Handle
// waits in its socket buffers instead of in leased memory.
const maxInboxChunks = 4

// Conn is the Communicator Component of the generated framework: the
// per-connection object binding the transport to the five-step pipeline.
// Its generated code varies with options O3 (codec buffer and decode
// loop), O7 (activity timestamps for the idle bound of the read deadline),
// O8 (the priority field) and O11 (byte counters) — the crosscutting
// Table 2 documents.
type Conn struct {
	srv *Server
	// app and codec are the connection's hooks: the server's for an
	// accepted connection; for one the application attached (see
	// Server.Attach), its own App and no codec.
	app   App
	codec Codec
	// sh is the shard that owns this connection for its whole life: its
	// reactor dispatches the connection's events and its profile takes
	// the hot-path counter writes, so nothing here contends with
	// connections on other shards.
	sh     *shard
	conn   net.Conn
	handle reactor.Handle

	// id is the server-unique connection sequence number assigned at
	// attach; with O12 it anchors the per-request trace ID. reqs counts
	// requests dispatched on this connection.
	id   uint64
	reqs atomic.Uint64

	// prio is the O8 scheduling priority applied to this connection's
	// events.
	prio atomic.Int32

	// lastActive is the unix-nano timestamp of the last read or write,
	// stamped only with O7 on: the idle bound of the read deadline (see
	// readDeadline).
	lastActive atomic.Int64

	// reqStart is the unix-nano timestamp at which the current partially
	// assembled request first entered the decode buffer (0 when no
	// request is pending), stamped only with a ReadTimeout: the read
	// deadline never reaches past reqStart + ReadTimeout, the defense the
	// per-read bound alone cannot provide against a peer that trickles
	// one byte per deadline window.
	reqStart atomic.Int64

	// life is the connection's lifecycle word (see lifecycle.go): its
	// read and pump gates, whether it is closing, closed or finalized, and
	// whether the peer's EOF is queued.
	life atomic.Uint32

	// Read side (see drain): the read gate serializes drains of inbound
	// bytes, so one owner at a time runs a connection's pipeline: its
	// chunks decode in read order into inbuf, and its Handle calls never
	// overlap. The drain takes the chunks from the FIFO inbox readLoop
	// fills: inbox[inHead:] under inMu, which a finalized connection no
	// longer takes. readLoop waits on inSpace while the inbox is full (see
	// awaitInboxSpace). raw is the transport's descriptor capability, nil
	// when the transport hides its descriptor: with it, readLoop leases a
	// chunk only once the socket is readable, and the write path's first
	// attempt is non-blocking (see writeq.go).
	inbuf   []byte
	raw     syscall.RawConn
	inMu    sync.Mutex
	inSpace sync.Cond
	inbox   []*bufpool.Buffer
	inHead  int

	// Write side (see send in writeq.go): writeMu serializes every reply's
	// flush. outq holds, in wire order, replies not yet on the wire: the
	// parked rest of replies the socket refused, and reserved reply
	// positions with the replies waiting behind them (held counts the
	// positions not yet filled, slots is the last position ID handed
	// out). The pump gate elects the one writePump goroutine that
	// finishes a parked queue, and pumping marks its flush, during whose
	// blocking writes it drops writeMu. unparked (on writeMu) wakes those
	// waiting for the pump: readLoop, which reads nothing while the queue
	// is parked, and finalize. The atomics feed the parked-write gauges
	// without taking the lock. outq, held, slots, pumping and the
	// gathered write's iovec scratch (wsegs, and wbufs for the blocking
	// sink) are guarded by writeMu, and so is the step to closing.
	// outCap is park's memory cap, set at attach (see maxOutboundBytes).
	outq       []outItem
	held       int
	slots      uint64
	outMem     atomic.Int64
	outPending atomic.Int64
	outCap     int64
	pumping    bool
	unparked   sync.Cond
	wsegs      [][]byte
	wbufs      net.Buffers

	writeMu sync.Mutex
	// closeErr records the first close cause for OnClose.
	closeErr error

	// userData carries application state (e.g. the FTP session).
	userData atomic.Value
}

// Server returns the owning server (for access to AIO and the cache).
func (c *Conn) Server() *Server { return c.srv }

// Profile returns the owning shard's profiling counters (nil when O11
// is off): the contention-free sink for application hot-path counts,
// aggregated lazily by Server.Profile().
func (c *Conn) Profile() *profiling.Profile { return c.sh.profile }

// Shard returns the index of the shard that owns this connection.
func (c *Conn) Shard() int { return c.sh.idx }

// Handle returns the connection's reactor handle.
func (c *Conn) Handle() reactor.Handle { return c.handle }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// LocalAddr returns the local address.
func (c *Conn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// Priority returns the connection's current scheduling priority (O8).
func (c *Conn) Priority() events.Priority { return events.Priority(c.prio.Load()) }

// SetPriority changes the connection's scheduling priority; subsequent
// events for this connection are queued at the new level.
func (c *Conn) SetPriority(p events.Priority) { c.prio.Store(int32(p)) }

// SetUserData attaches application state to the connection.
func (c *Conn) SetUserData(v any) { c.userData.Store(v) }

// UserData returns the state attached with SetUserData (nil if unset).
func (c *Conn) UserData() any { return c.userData.Load() }

// Closed reports whether the connection has been torn down.
func (c *Conn) Closed() bool { return c.closeState() >= lifeClosed }

// step applies edge e to the connection's lifecycle word and returns the
// action the transition requires of the caller. A transition the table
// forbids is counted on the shard (Server.LifecycleBadSteps).
func (c *Conn) step(e edge) action {
	for {
		s := c.life.Load()
		if next, act := lifecycle.apply(s, e); next == s || c.life.CompareAndSwap(s, next) {
			if act&actBad != 0 {
				c.sh.badSteps.Add(1)
			}
			return act
		}
	}
}

// closeState returns the close field: lifeOpen, lifeClosing, lifeClosed
// or lifeFinalized.
func (c *Conn) closeState() uint32 { return c.life.Load() >> closeShift & 3 }

// ID returns the server-unique connection sequence number.
func (c *Conn) ID() uint64 { return c.id }

// RequestID returns the trace ID of the request currently (or most
// recently) dispatched on this connection, in the O12 trace format
// "c<conn>-r<req>". Before the first request the request ordinal is 0.
func (c *Conn) RequestID() string { return FormatRequestID(c.id, c.RequestSeq()) }

// RequestSeq returns the ordinal of the request currently (or most
// recently) dispatched on this connection, RequestID without the
// formatting: callers that may never print the ID keep this instead.
func (c *Conn) RequestSeq() uint64 { return c.reqs.Load() }

// FormatRequestID renders the O12 trace ID of request ordinal req on
// connection conn: "c<conn>-r<req>".
func FormatRequestID(conn, req uint64) string { return fmt.Sprintf("c%d-r%d", conn, req) }

// nextRequestID advances the request ordinal for a newly decoded request
// and returns its trace ID.
func (c *Conn) nextRequestID() uint64 { return c.reqs.Add(1) }

// BeginRequest advances the request ordinal for a request the FastPath
// hook has committed to serving inline, keeping trace IDs and
// per-connection request counts identical across the fast and queued
// paths. The hook must call it exactly once per request it consumes, and
// never for a request it declines (the queued path stamps those itself).
func (c *Conn) BeginRequest() uint64 { return c.nextRequestID() }

// touch stamps the connection's activity for the O7 idle bound; with O7
// off it reads no clock.
func (c *Conn) touch() {
	if c.srv.opts.ShutdownLongIdle {
		c.lastActive.Store(time.Now().UnixNano())
	}
}

// Send transmits raw bytes (the Send Reply step without encoding) as one
// outbound item (see send), behind every reply position reserved before
// it. data may be released or reused once Send returns: bytes the
// connection could not write yet are copied.
func (c *Conn) Send(data []byte) error { return c.send(outItem{head: data}) }

// replyHeadSize sizes the pooled buffer leased for zero-copy reply heads.
const replyHeadSize = 512

// Reply encodes a reply with the connection's codec (Encode Reply step)
// and sends it. On a connection without a codec, reply must be a []byte.
// Codecs implementing BufferEncoder take the zero-copy path: the head is
// rendered into a pooled buffer and head and body go out as one writev,
// so the body is never copied into a combined response slice.
func (c *Conn) Reply(reply any) error { return c.reply(reply, outItem{}) }

// reply encodes reply into it — a plain item or a reserved position's.
func (c *Conn) reply(reply any, it outItem) error {
	if be, ok := c.codec.(BufferEncoder); ok {
		return c.sendReply(be, reply, it)
	}
	data, err := c.encode(reply)
	if err != nil {
		return c.encodeFailed(it, err)
	}
	it.head = data
	return c.send(it)
}

// sendReply renders reply's head into a pooled lease (the Encode Reply
// step) and sends it as one item with whatever file range it carries.
// The lease goes back to the pool on return; send copies any head bytes
// it has to keep.
func (c *Conn) sendReply(be BufferEncoder, reply any, it outItem) error {
	lease := bufpool.Get(replyHeadSize)
	encStart := c.sh.profile.StageStart()
	var err error
	it.head, it.body, err = appendHeadSafe(be, lease.Bytes()[:0], reply)
	c.sh.profile.ObserveSince(profiling.StageEncode, encStart)
	if err == nil {
		err = c.send(it)
	} else {
		err = c.encodeFailed(it, err)
	}
	lease.Release()
	return err
}

// encodeFailed returns a failed Encode Reply step's error. A reserved
// position is still filled, empty, so the replies behind it are not
// held forever.
func (c *Conn) encodeFailed(it outItem, err error) error {
	if it.slot != 0 {
		_ = c.send(outItem{slot: it.slot, last: it.last})
	}
	return err
}

// appendHeadSafe runs the codec's AppendHead (Encode Reply step) with
// panic isolation: a buggy Encode hook fails this one reply with an
// error instead of unwinding the worker that dispatched it.
func appendHeadSafe(be BufferEncoder, dst []byte, reply any) (head, body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			head, body = nil, nil
			err = fmt.Errorf("nserver: encode panic: %v", r)
		}
	}()
	return be.AppendHead(dst, reply)
}

// SendBuffers transmits head and body as one vectored write with Send's
// semantics, for callers (the copshttp fast path) that hold a rendered
// wire head and a reference-safe body and must not glue them into one
// allocation or copy either. Both slices are retained by reference: a
// reply that is queued — parked or behind a reserved position — keeps
// them until it is flushed, so neither may change until then.
func (c *Conn) SendBuffers(head, body []byte) error {
	return c.send(outItem{head: head, body: body, headRef: true})
}

// Close tears the connection down cleanly. A connection with committed
// replies still queued closes gracefully: replies behind a reserved
// position leave once it is filled, a parked queue finishes draining
// (each of the pump's writes under the per-chunk write bound), and the
// teardown runs when the queue empties, so a pipelined peer still
// receives every reply committed before the close.
func (c *Conn) Close() error {
	c.writeMu.Lock()
	deferred := len(c.outq) > 0 && c.step(edgeClose)&actDefer != 0
	c.writeMu.Unlock()
	if !deferred {
		c.teardown(nil)
	}
	return nil
}

// teardown closes the transport once and emits the close event, so
// finalize (deregistration and OnClose) runs on the processing path, never
// under the caller's locks. It runs under inMu, which also wakes a reader
// waiting for inbox space (it reads the closed transport next and ends)
// and holds a concurrent teardown until the close event is queued:
// Shutdown's sweep returns only once every connection's event is.
func (c *Conn) teardown(cause error) {
	c.inMu.Lock()
	defer c.inMu.Unlock()
	if c.step(edgeTeardown)&actTeardown == 0 {
		return
	}
	c.closeErr = cause
	c.conn.Close()
	c.inSpace.Broadcast()
	if c.sh.reactor.Emit(reactor.Ready{
		Type:   reactor.CloseReady,
		Handle: c.handle,
		Data:   cause,
		Prio:   c.Priority(),
	}) != nil {
		// The event path has stopped: finalize off the caller's locks.
		go c.finalize()
	}
}

// readLoop is the Read Request step: the connection's reader goroutine
// reads the transport chunk by chunk and queues each chunk on the
// connection's FIFO inbox, so inbox order is read order. Each chunk then
// wakes the connection (see wake); whichever drain the wakeups elect
// takes the chunks in inbox order. On a transport that exposes its
// descriptor the chunk is leased only once the socket is readable (see
// leaseReader), so a goroutine waiting on an idle connection holds no
// buffer; other transports lease before the blocking Read. lr is the
// reader goroutine's lease reader (see Server.reader). readLoop reads
// nothing while the outbound queue is parked, or while the inbox is full:
// a peer that stops reading its replies, or pipelines faster than Handle
// runs, is throttled, not buffered for. With a ReadTimeout or O7 set,
// each read waits under the one deadline that carries every read-side
// bound (see readDeadline and expired).
func (c *Conn) readLoop(lr *leaseReader) {
	bounded := c.srv.opts.ReadTimeout > 0 || c.srv.opts.ShutdownLongIdle
	for {
		// The park is checked last: a drain that frees inbox space may
		// park the queue first, and then no read may follow.
		c.awaitInboxSpace()
		if c.outPending.Load() > 0 {
			c.awaitUnparked()
		}
		var armed int64
		if bounded {
			armed = time.Now().UnixNano()
			_ = c.conn.SetReadDeadline(time.Unix(0, c.readDeadline(armed)))
		}
		readStart := c.sh.profile.StageStart()
		var lease *bufpool.Buffer
		var n int
		var err error
		if c.raw != nil {
			lease, n, err = lr.readFrom(c.raw)
		} else {
			lease = bufpool.Get(readChunkSize)
			n, err = c.conn.Read(lease.Bytes())
		}
		if n > 0 {
			// The Read Request stage: waiting-to-read time per chunk, which
			// also makes peer read stalls visible in the histogram.
			c.sh.profile.ObserveSince(profiling.StageRead, readStart)
			lease.SetLen(n)
			c.sh.profile.Add(profiling.BytesRead, n)
			c.touch()
			if c.pushInbox(lease) {
				if eerr := c.wake(); eerr != nil {
					c.teardown(eerr)
					return
				}
			}
		} else if lease != nil {
			lease.Release()
		}
		if err != nil {
			if bounded && os.IsTimeout(err) && !c.expired(armed, err) {
				continue
			}
			c.readEnd(err)
			return
		}
	}
}

// readDeadline returns the unix-nano deadline of a read armed at armed:
// the earliest of the silence bound (armed + ReadTimeout), the assembly
// bound (the buffered partial request's first byte + ReadTimeout) and the
// O7 idle bound (the last read or reply + IdleTimeout).
func (c *Conn) readDeadline(armed int64) int64 {
	d := int64(math.MaxInt64)
	if rt := int64(c.srv.opts.ReadTimeout); rt > 0 {
		d = armed + rt
		if start := c.reqStart.Load(); start != 0 {
			d = min(d, start+rt)
		}
	}
	if c.srv.opts.ShutdownLongIdle {
		d = min(d, c.lastActive.Load()+int64(c.srv.opts.IdleTimeout))
	}
	return d
}

// expired runs when the deadline of a read armed at armed fires (see
// readDeadline). It tears the connection down for a bound that has
// passed and reports true: with ErrSlowClient for request assembly, with
// the deadline error err for a silent ReadTimeout, and with no error for
// the O7 idle bound. With every bound still ahead — a reply moved since
// the deadline was armed — it reports false, and the reader re-arms.
func (c *Conn) expired(armed int64, err error) bool {
	now, rt := time.Now().UnixNano(), int64(c.srv.opts.ReadTimeout)
	switch start := c.reqStart.Load(); {
	case start != 0 && now >= start+rt:
		c.idleShutdown(ErrSlowClient)
	case rt > 0 && now >= armed+rt:
		c.teardown(err)
	case c.srv.opts.ShutdownLongIdle && now >= c.lastActive.Load()+int64(c.srv.opts.IdleTimeout):
		c.idleShutdown(nil)
	default:
		return false
	}
	return true
}

// idleShutdown tears down a connection that outlived its assembly or O7
// idle bound, counted as an idle shutdown unless it was already closing.
func (c *Conn) idleShutdown(cause error) {
	if !c.Closed() {
		c.srv.trace.Record("communicator", "reaped %d (%v)", c.handle, cause)
		c.sh.profile.Add(profiling.IdleShutdowns, 1)
	}
	c.teardown(cause)
}

// pushInbox queues one chunk read by readLoop and reports whether it was
// queued; on a finalized connection the chunk is released instead.
func (c *Conn) pushInbox(lease *bufpool.Buffer) bool {
	c.inMu.Lock()
	defer c.inMu.Unlock()
	if c.closeState() == lifeFinalized {
		lease.Release()
		return false
	}
	c.inbox = append(c.inbox, lease)
	return true
}

// awaitInboxSpace blocks readLoop while the inbox holds maxInboxChunks
// undrained chunks, until a drain pops one or teardown (which precedes
// every releaseInbox) closes the connection.
func (c *Conn) awaitInboxSpace() {
	c.inMu.Lock()
	for len(c.inbox)-c.inHead >= maxInboxChunks && !c.Closed() {
		c.inSpace.Wait()
	}
	c.inMu.Unlock()
}

// popInbox dequeues the oldest chunk, waking readLoop if the inbox was
// full. An empty inbox yields nil, with eof set once the peer's EOF
// ended the stream. The slice rewinds once drained, so a steady stream
// reuses one backing array. eof is loaded before the inbox is looked at:
// every chunk queued ahead of the EOF is then seen.
func (c *Conn) popInbox() (lease *bufpool.Buffer, eof bool) {
	eof = c.life.Load()>>eofShift&1 != 0
	c.inMu.Lock()
	defer c.inMu.Unlock()
	if c.inHead == len(c.inbox) {
		return nil, eof
	}
	if len(c.inbox)-c.inHead == maxInboxChunks {
		c.inSpace.Signal()
	}
	lease = c.inbox[c.inHead]
	c.inbox[c.inHead] = nil
	if c.inHead++; c.inHead == len(c.inbox) {
		c.inbox, c.inHead = c.inbox[:0], 0
	}
	return lease, false
}

// releaseInbox returns every still-queued chunk of a finalized
// connection to the pool, so each lease is released exactly once: by the
// drain that popped it, here, or by pushInbox after finalize.
func (c *Conn) releaseInbox() {
	c.inMu.Lock()
	left := c.inbox[c.inHead:]
	c.inbox, c.inHead = nil, 0
	c.inMu.Unlock()
	for _, lease := range left {
		lease.Release()
	}
}

// readEnd ends the inbound stream. The peer's EOF ends only that: it is
// queued behind the last chunk, and the drain that reaches it closes the
// connection gracefully (see Close), so every request the peer sent
// before it is handled and answered. Any other read error tears the
// connection down; a close this side initiated is not an error.
func (c *Conn) readEnd(err error) {
	if errors.Is(err, io.EOF) {
		c.step(edgeEOF)
		if err = c.wake(); err == nil {
			return
		}
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || c.Closed() {
		err = nil
	}
	c.teardown(err)
}

// wake runs when readLoop has queued a chunk. With the fast path active
// and the O9 gate clear, the reader goroutine claims the read gate and drains
// inline, offering each decoded request to the FastPath hook. Otherwise
// it emits the PollReady event an Event Processor worker drains from
// (Reactor.Emit queues it there directly), so the event queue, and the O9
// watermarks sampling it, see one event per wakeup.
func (c *Conn) wake() error {
	if c.codec != nil && c.srv.directDispatch && c.srv.fastGateClear() {
		if c.step(edgeReadable)&actRun != 0 {
			c.drain(c.srv.tryFastHandle)
		}
		return nil
	}
	return c.sh.reactor.Emit(reactor.Ready{
		Type:   reactor.PollReady,
		Handle: c.handle,
		Prio:   c.Priority(),
	})
}

// handleReady is the Communicator's event handler, dispatched by the
// reactor for this connection's handle. PollReady (inbound bytes to
// drain) runs the Decode and Handle Request steps; CloseReady finalizes
// the connection.
func (c *Conn) handleReady(rd reactor.Ready) {
	switch rd.Type {
	case reactor.PollReady:
		if c.step(edgeReadable)&actRun != 0 {
			c.drain(nil)
		}
	case reactor.CloseReady:
		c.finalize()
	}
}

// fastHook is the fast-path decode hook (Server.tryFastHandle): it
// reports whether it consumed a decoded request inline.
type fastHook func(c *Conn, req any) bool

// drain is the one Decode Request loop over the inbox. The caller owns
// the read gate — a won claim, or a punted drain's continuation — and drain
// feeds chunks to the decode loop until the inbox is empty, then
// releases the gate, going around again when a wakeup landed mid-pass.
// An empty inbox behind the peer's EOF closes the connection. fast nil
// sends every request down the queued Handle path; a punt returns with
// the gate still held.
func (c *Conn) drain(fast fastHook) {
	for {
		for !c.Closed() {
			lease, eof := c.popInbox()
			if eof {
				c.Close()
			}
			if lease == nil {
				break
			}
			punted := c.decodeChunk(lease.Bytes(), fast)
			lease.Release()
			if punted {
				return
			}
		}
		if c.step(edgeRelease)&actAgain == 0 {
			return
		}
	}
}

// decodeChunk appends a raw chunk and extracts requests. With a codec the
// Decode Request step loops over complete requests (HTTP pipelining, FTP
// command batches); without one the chunk itself is the request (Fig. 2).
// chunk may be pooled memory owned by the caller: it is only valid for the
// duration of this call, so codec-less handlers must copy any bytes they
// keep past Handle's return. It reports whether the drain punted.
//
// MaxRequestBytes caps what a pass leaves undecoded, not the chunk: one
// read may carry many complete pipelined requests, and only a partial
// request past the cap is an oversized one. The buffer is therefore
// bounded by the cap plus one read chunk.
func (c *Conn) decodeChunk(chunk []byte, fast fastHook) (punted bool) {
	if c.codec == nil {
		c.srv.handleRequest(c, chunk)
		return false
	}
	c.inbuf = append(c.inbuf, chunk...)
	pass := c.inbuf
	if c.decodeLoop(fast) {
		return true
	}
	if len(c.inbuf) == 0 {
		// Rewind onto the pass's start: the next chunk reuses the array
		// instead of growing a fresh one past the consumed bytes.
		c.inbuf = pass[:0]
	} else if max := c.srv.opts.MaxRequestBytes; max > 0 && len(c.inbuf) > max {
		c.srv.trace.Record("communicator", "request cap exceeded on %d (%d bytes)",
			c.handle, len(c.inbuf))
		c.teardown(ErrRequestTooLarge)
	}
	return false
}

// decodeLoop extracts and dispatches buffered requests until the buffer
// empties or ends in a partial request. Each request goes to fast first
// when it is set; the first one it declines punts (see punt), and
// the report is true.
//
// A fast-served request with more bytes buffered behind it opens a
// window: the loop reserves the connection's next reply position (see
// Reserve), so the window's replies wait behind it, and fills it empty
// when the window ends — at the pass end, before a punt and before a
// decode error's teardown. The flush the fill runs sends the window in
// one gathered write. Only the fast path opens windows: its hook never
// blocks, so a held position never waits on the peer, and none outlives
// the pass.
func (c *Conn) decodeLoop(fast fastHook) (punted bool) {
	var window Slot
	for {
		decStart := c.sh.profile.StageStart()
		req, n, err := c.decodeSafe()
		c.sh.profile.ObserveSince(profiling.StageDecode, decStart)
		if n > 0 {
			c.inbuf = c.inbuf[n:]
			if fast == nil {
				c.srv.handleRequest(c, req)
			} else {
				if window.c == nil && len(c.inbuf) > 0 {
					window = c.Reserve()
				}
				if !fast(c, req) {
					window.fillEmpty()
					return c.punt(req)
				}
			}
		}
		end := err != nil || n == 0 || len(c.inbuf) == 0
		if end {
			window.fillEmpty()
		}
		if err != nil {
			c.srv.trace.Record("communicator", "decode error on %d: %v", c.handle, err)
			c.teardown(err)
			return false
		}
		if end {
			// Track request-assembly age for the read deadline: a
			// non-empty remainder is a partial request; stamp its start
			// once and clear the stamp when the buffer drains.
			if len(c.inbuf) == 0 {
				c.reqStart.Store(0)
			} else if c.reqStart.Load() == 0 && c.srv.opts.ReadTimeout > 0 {
				c.reqStart.Store(time.Now().UnixNano())
			}
			return false
		}
	}
}

// decodeSafe runs the codec's Decode hook (Decode Request step) with
// panic isolation: a panicking decoder becomes a decode error that tears
// down this connection only, instead of unwinding the dispatcher or an
// Event Processor worker mid-drain.
func (c *Conn) decodeSafe() (req any, n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			req, n = nil, 0
			err = fmt.Errorf("nserver: decode panic: %v", r)
		}
	}()
	return c.codec.Decode(c.inbuf)
}

// punt hands a request the fast-path hook declined, plus the
// rest of the drain, to the shard's event queue as one event — so
// admission control still observes a queue wait for every request the
// fast path could not finish. The read gate stays claimed across the
// handoff (edgePunt changes nothing): readiness edges meanwhile only flag
// another pass, which the continuation's drain collects before it
// releases the gate. It reports
// whether the punt was queued; a refused punt (shutdown or a hard shed)
// tears the connection down, since silently dropping a decoded pipelined
// request would desynchronize it, and the caller's drain then releases
// the gate.
func (c *Conn) punt(req any) bool {
	err := c.sh.reactive.Submit(events.PFunc{
		P: c.Priority(),
		F: func() { c.resumePunted(req) },
	})
	if err != nil {
		c.srv.trace.Record("communicator", "direct-drain punt refused on %d: %v", c.handle, err)
		c.teardown(err)
		return false
	}
	return true
}

// resumePunted continues a punted drain on an Event Processor worker: the
// declined request runs through the normal Handle path, the remaining
// buffered requests decode and dispatch as usual, and the drain resumes
// in queued mode, releasing the gate it inherited.
func (c *Conn) resumePunted(req any) {
	if !c.Closed() {
		c.srv.handleRequest(c, req)
		c.decodeLoop(nil)
	}
	c.drain(nil)
}

// finalize runs the OnClose hook exactly once, after deregistering the
// handle (the framework's Communicator teardown). Any outbound residuals
// still parked release their pooled leases and dup'd descriptors here,
// on the event path, where no write lock is held by the teardown cause.
// The finalize edge says which of these steps is due.
func (c *Conn) finalize() {
	act := c.step(edgeFinalize)
	if act&actReleaseInbox != 0 {
		c.releaseInbox()
	}
	if act&actFreeOutbound != 0 {
		c.freeOutbound()
	}
	if act&actDetach != 0 {
		c.srv.detach(c)
		c.sh.profile.Add(profiling.ConnectionsClosed, 1)
		c.app.OnClose(c, c.closeErr)
	}
}
