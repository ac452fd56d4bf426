package nserver

import (
	"errors"
	"io"
	"os"
	"time"

	"repro/internal/bufpool"
	"repro/internal/profiling"
)

// This file is the connection's one write path (the read half is drain
// in conn.go). Send, SendBuffers, Reply and ReplyFile each describe their
// reply as one outItem — head, body, then a file range — and hand it to
// send, which appends it to the connection's outbound queue, outq, and
// runs flush, the one loop that moves reply bytes. flush gathers the
// memory segments of consecutive queued items into one vectored write and
// streams a file range after its item's memory. It does not know how the
// bytes leave; it writes through the connection's sink (writev,
// sendChunk), and the sink is chosen by whether the transport exposes its
// descriptor (syscall.Conn):
//
//   - On a descriptor-exposing connection, every flush of an unparked
//     queue writes non-blocking, whichever goroutine sends. When the
//     socket buffer fills, the sink reports again: the rest of the queue
//     parks (see park) and the sender returns. The parking goroutine
//     starts writePump, which exists only while a queue is parked: it
//     runs the same flush with the blocking sink on Go's netpoller, and
//     drops writeMu across each blocking write, so senders keep appending
//     behind the parked queue. The pump gate of the connection's
//     lifecycle word (see lifecycle.go), a gate like the read side's,
//     elects the one pump, so a park is never lost and two pumps never
//     overlap.
//   - A transport that hides its descriptor (faultnet, wrappers, non-Linux)
//     writes blocking from the sender. Its sink never reports again, so
//     nothing ever parks.
//
// The blocking sink arms the write deadline per bounded chunk (see
// writeBound), so WriteTimeout means the same for every write: a stall
// bound, not a transfer cap. A peer that stops reading a parked reply
// fails the pump's next deadline, while a slow-but-progressing one may
// take as long as it needs. With O7 on, IdleTimeout tightens the bound,
// and a peer that stops taking its reply for that long is reaped as idle.
//
// A handler whose reply waits on an asynchronous hop first reserves the
// connection's next reply position (see Reserve): an unfilled, held item
// at which flush stops. Replies sent behind it wait in the queue, owned
// (see own), until the sender that fills the front position moves the
// whole contiguous run. Queue order is thus request order, whichever
// reply completes first. A held position is never parked. The drain
// reserves one for each pipelined window it serves on the fast path (see
// decodeLoop) and fills it empty when the window ends, so the window's
// replies leave in one gathered write.

// ErrOutboundOverflow tears down a connection whose parked replies would
// exceed the per-connection outbound memory cap: a reader this far
// behind a pipelined producer is shed, not buffered without bound.
var ErrOutboundOverflow = errors.New("nserver: outbound queue exceeds memory cap")

// maxOutboundBytes caps the in-memory bytes (head remainders + retained
// bodies) parked on one connection, beyond its first parked reply (see
// park). File residuals are not memory and do not count — their cost is
// one descriptor. The cap is set beside what the kernel takes of a
// window before anything parks, up to a send buffer autotuned to
// sndbufCeiling (tcp_wmem's default maximum). A connection under a write
// bound caps the kernel's unsent bytes at notSentLowat instead (see
// setNotSentLowat), so its queue may hold the difference (Conn.outCap),
// and a window the kernel and queue held together before still fits.
const (
	maxOutboundBytes = 8 << 20
	sndbufCeiling    = 4 << 20
	notSentLowat     = 128 << 10
)

// writeFlushChunk bounds how many bytes the blocking sink moves under one
// armed write deadline. The deadline is absolute, so arming it once for a
// whole reply would make WriteTimeout a cap on total transfer time — a
// healthy reader downloading a large buffered reply would be torn down
// mid-stream. Chunking re-arms per flush instead: WriteTimeout bounds how
// long the peer may stall per chunk, matching streamChunkSize's contract
// on the file range.
const writeFlushChunk = 256 << 10

// writeFlushSegs bounds the segments one gathered write carries: IOV_MAX
// on Linux, past which writev(2) refuses the vector.
const writeFlushSegs = 1024

// retainedQueueCap is the outbound queue capacity a connection keeps for
// its next window once the queue empties; a larger burst's is dropped.
const retainedQueueCap = 32

// outItem is one reply in wire order: head, then body, then remaining
// bytes of file starting at off. While send runs, every field borrows
// from the caller; an item that outlives the call — parked or behind a
// held position — owns its head and descriptor (see own),
// except a head the caller lent by reference (SendBuffers).
type outItem struct {
	headLease *bufpool.Buffer // owns head's backing store once queued past send
	head      []byte          // unsent head
	headRef   bool            // head is retained by reference, like body: own leaves it
	body      []byte          // unsent body, retained by reference (bodies are GC-owned)
	file      *os.File        // the caller's descriptor, a queue-owned dup once owned
	off       int64           // next file offset
	remaining int64           // file bytes still unsent
	parkedAt  int64           // unix-nano park time; 0 while borrowed or held
	slot      uint64          // reserved position's ID (see Reserve); 0 for a plain send
	held      bool            // a reserved position not yet filled: flush stops here
	last      bool            // the connection's last reply (see Slot.Last)
	owned     bool            // own ran: head leased unless lent, file a queue-owned dup
}

// mem returns the item's unsent memory bytes.
func (it *outItem) mem() int { return len(it.head) + len(it.body) }

// consume drops n sent bytes from the front of the memory segments,
// releasing an owned head's lease as soon as the head is gone.
func (it *outItem) consume(n int) {
	if h := len(it.head); n < h {
		it.head = it.head[n:]
		return
	}
	n -= len(it.head)
	it.head = nil
	if it.headLease != nil {
		it.headLease.Release()
		it.headLease = nil
	}
	it.body = it.body[n:]
}

// own makes the item outlive send: the unsent head moves into a pooled
// lease, so the caller may reuse its buffer once send returns (the Reply
// path releases its own lease then), and a file range gets the queue's
// own dup of the descriptor, so the caller may close src as soon as
// ReplyFile returns. The body, and a head lent by reference, stay where
// they are.
func (it *outItem) own() error {
	if it.owned {
		return nil
	}
	if len(it.head) > 0 && !it.headRef {
		it.headLease = bufpool.Get(len(it.head))
		it.head = it.headLease.Bytes()[:copy(it.headLease.Bytes(), it.head)]
	}
	if it.remaining == 0 {
		it.file = nil
	} else {
		f, err := dupFile(it.file)
		if err != nil {
			return err
		}
		it.file = f
	}
	it.owned = true
	return nil
}

// release frees what the item owns: its head lease and its dup'd
// descriptor (a borrowed one is the caller's).
func (it *outItem) release() {
	if it.headLease != nil {
		it.headLease.Release()
		it.headLease = nil
	}
	if it.owned && it.file != nil {
		it.file.Close()
		it.file = nil
	}
}

// OutboundQueued returns the logical bytes (memory + file) still parked
// on this connection's outbound queue.
func (c *Conn) OutboundQueued() int64 { return c.outPending.Load() }

// Slot is a reply position reserved on a connection's outbound queue (see
// Reserve). Its Reply, ReplyFile and SendBuffers fill it with exactly one
// reply; until then nothing sent behind it reaches the wire.
type Slot struct {
	c    *Conn
	id   uint64
	seq  uint64
	last bool
}

// Reserve holds the connection's next reply position, for a Handle whose
// reply waits on an asynchronous hop: Handle runs in request order, so
// the positions do too, and replies leave in request order whichever
// completes first (HTTP/1.1 pipelining, RFC 9112 §9.3.2). Every position
// must be filled; the connection's teardown releases those still held,
// and filling one after it returns ErrConnClosed.
func (c *Conn) Reserve() Slot {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.slots++
	s := Slot{c: c, id: c.slots, seq: c.RequestSeq()}
	if c.closeState() == lifeOpen {
		c.outq = append(c.outq, outItem{slot: s.id, held: true})
		c.held++
	}
	return s
}

// Conn returns the connection the position belongs to.
func (s Slot) Conn() *Conn { return s.c }

// Seq returns the ordinal of the request the position was reserved for
// (RequestSeq when Reserve ran).
func (s Slot) Seq() uint64 { return s.seq }

// Last returns the position marked, when last is true, as the
// connection's last reply: once its bytes are on the wire the connection
// closes, and every reply queued behind it is released unsent.
func (s Slot) Last(last bool) Slot {
	s.last = last
	return s
}

// Reply fills the position with an encoded reply, as Conn.Reply sends one.
func (s Slot) Reply(reply any) error { return s.c.reply(reply, s.item()) }

// ReplyFile fills the position with a streamed file reply, as
// Conn.ReplyFile sends one; src may be closed once it returns.
func (s Slot) ReplyFile(reply any, src *os.File, offset, length int64) error {
	it := s.item()
	it.file, it.off, it.remaining = src, offset, length
	return s.c.replyFile(reply, it)
}

// SendBuffers fills the position with head and body, as Conn.SendBuffers
// sends them: both by reference.
func (s Slot) SendBuffers(head, body []byte) error {
	it := s.item()
	it.head, it.body, it.headRef = head, body, true
	return s.c.send(it)
}

// item is the outbound item that fills the position.
func (s Slot) item() outItem { return outItem{slot: s.id, last: s.last} }

// fillEmpty fills the position with no bytes, releasing the replies
// waiting behind it; on the zero Slot (nothing reserved) it does nothing.
func (s Slot) fillEmpty() {
	if s.c != nil {
		_ = s.c.send(s.item())
	}
}

// send is the Send Reply step every reply takes. Under writeMu it
// appends the item to outq — or, for a fill, puts it in its reserved
// position — and flushes the queue until it is sent, the write fails
// (the connection is torn down) or a non-blocking attempt finds the
// socket full (the rest parks and send returns nil: the bytes are
// committed and will drain in order). Two cases only queue: behind a
// held position a reply waits for it to be filled, and behind anything
// parked it parks. Queue order is wire order every way.
func (c *Conn) send(it outItem) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if st := c.closeState(); st >= lifeClosed || it.slot == 0 && st == lifeClosing {
		return ErrConnClosed
	}
	i, heldAhead := len(c.outq), c.held > 0
	if it.slot == 0 {
		c.outq = append(c.outq, it)
	} else {
		if i, heldAhead = c.slotIndex(it.slot); i < 0 {
			return ErrConnClosed
		}
		c.outq[i] = it
		c.held--
	}
	switch {
	case heldAhead:
		if err := c.outq[i].own(); err != nil {
			c.failOutboundLocked(err)
			return err
		}
		return nil
	case c.queueParked():
		return c.park()
	}
	return c.flushLocked()
}

// slotIndex finds reserved position slot in outq (-1 once it was
// released) and reports whether another held position precedes it.
// Called under writeMu.
func (c *Conn) slotIndex(slot uint64) (i int, heldAhead bool) {
	for i := range c.outq {
		switch {
		case c.outq[i].slot == slot:
			return i, heldAhead
		case c.outq[i].held:
			heldAhead = true
		}
	}
	return -1, false
}

// queueParked reports whether outq waits on the write pump. Items park
// as a whole queue, so the front decides; an empty queue or one whose
// front is a held position is not parked. Called under writeMu.
func (c *Conn) queueParked() bool { return len(c.outq) > 0 && c.outq[0].parkedAt != 0 }

// flushLocked runs flush for a writer holding a queue that is not
// parked (send): a write error tears the connection down, a
// full socket parks what is left, and an emptied queue closes the
// connection when a Close or a last reply waits on it. Called under
// writeMu.
func (c *Conn) flushLocked() error {
	sendStart := c.sh.profile.StageStart()
	again, err := c.flush()
	c.sh.profile.ObserveSince(profiling.StageSend, sendStart)
	switch {
	case err != nil:
		c.failOutboundLocked(err)
		return err
	case again:
		return c.park()
	}
	c.closeIfDrained()
	return nil
}

// closeIfDrained tears the connection down once its queue has emptied
// under a pending Close or last reply. Called under writeMu.
func (c *Conn) closeIfDrained() {
	if len(c.outq) == 0 && c.closeState() == lifeClosing {
		c.teardown(nil)
	}
}

// flush is the one loop that moves reply bytes. From the front of outq
// it gathers the memory segments of consecutive items into one vectored
// write, then streams a file range a chunk at a time, and drops each item
// once it is sent, until the queue is empty, a held position is next,
// the sink reports again (the items keep their unsent rest) or a write
// fails. An owned item's descriptor closes and a parked one's
// park-to-flushed latency is recorded as it leaves; once the
// connection's last reply has left, everything behind it is released
// unsent and the connection is due to close. Called under writeMu; the
// pump's sink drops it across each write, so items are addressed by
// index, never by a held pointer.
func (c *Conn) flush() (again bool, err error) {
	parked := c.queueParked()
	sent := 0
	for sent < len(c.outq) && !c.outq[sent].held && !again && err == nil {
		it := &c.outq[sent]
		switch {
		case it.mem() > 0:
			segs, want := c.gather(sent)
			var n int
			n, again, err = c.writev(segs, want)
			clear(segs)
			if n > 0 {
				c.sh.profile.Add(profiling.ReplyWrites, 1)
				c.noteSent(n, true, parked)
			}
			for i := sent; n > 0; i++ {
				m := min(n, c.outq[i].mem())
				c.outq[i].consume(m)
				n -= m
			}
		case it.remaining > 0:
			var n int
			var via bool
			n, again, via, err = c.sendChunk(sent)
			if n > 0 {
				c.outq[sent].remaining -= int64(n)
				c.noteSent(n, false, parked)
				c.sh.profile.Add(profiling.BytesStreamed, n)
				if via {
					c.sh.profile.Add(profiling.SendfileChunks, 1)
				} else {
					c.sh.profile.Add(profiling.FallbackChunks, 1)
				}
			} else if err == nil && !again {
				// The file ran out under us before the promised length: the
				// head is already on the wire, so the framing cannot be repaired.
				err = ErrStreamTruncated
			}
		default:
			it.release()
			if it.parkedAt != 0 {
				c.sh.profile.ObserveFlush(time.Duration(time.Now().UnixNano() - it.parkedAt))
			}
			sent++
			if it.last {
				c.releaseFrom(sent)
				c.step(edgeClose)
			}
		}
	}
	// Drop the sent items in place: the next window reuses the backing
	// array and the iovec scratch, unless a burst grew them past
	// retainedQueueCap, which an idle connection should not keep.
	left := copy(c.outq, c.outq[sent:])
	clear(c.outq[left:])
	c.outq = c.outq[:left]
	if left == 0 && cap(c.outq) > retainedQueueCap {
		c.outq, c.wsegs, c.wbufs = nil, nil, nil
	}
	return again, err
}

// gather collects the unsent memory segments of consecutive queued items,
// from outq[from] on, in wire order, into the connection's iovec scratch:
// at most writeFlushSegs segments and writeFlushChunk bytes. It stops
// at a held position, after the connection's last reply, and after an
// item with a file range, whose file bytes go out before the next
// item's. Called under writeMu.
func (c *Conn) gather(from int) (segs [][]byte, want int) {
	segs = c.wsegs[:0]
fill:
	for i := from; i < len(c.outq) && !c.outq[i].held; i++ {
		it := &c.outq[i]
		for _, seg := range [2][]byte{it.head, it.body} {
			if len(seg) == 0 {
				continue
			}
			if len(segs) == writeFlushSegs || want == writeFlushChunk {
				break fill
			}
			seg = seg[:min(len(seg), writeFlushChunk-want)]
			segs = append(segs, seg)
			want += len(seg)
		}
		if it.remaining > 0 || it.last {
			break
		}
	}
	c.wsegs = segs
	return segs, want
}

// noteSent accounts n bytes the sink accepted in one write: the O11 byte
// counter and the O7 activity stamp always, and for a parked queue the
// queue gauges. Called under writeMu.
func (c *Conn) noteSent(n int, mem, parked bool) {
	c.sh.profile.Add(profiling.BytesSent, n)
	c.touch()
	if !parked {
		return
	}
	if mem {
		c.outMem.Add(-int64(n))
	}
	c.outPending.Add(-int64(n))
}

// nonblocking reports whether the sink writes non-blocking: on a
// descriptor-exposing connection, for every flush but the pump's.
// Called under writeMu.
func (c *Conn) nonblocking() bool { return c.raw != nil && !c.pumping }

// writev is the sink's vectored write of want bytes in segs. A
// non-blocking attempt is one writev(2); a full socket buffer — EAGAIN,
// or a short count, which writev reports without EAGAIN — comes back as
// again. A blocking write runs under a freshly armed write deadline, and
// a short count without an error is io.ErrShortWrite: the rest of the
// reply must never silently vanish from the wire. Called under writeMu.
func (c *Conn) writev(segs [][]byte, want int) (n int, again bool, err error) {
	if c.nonblocking() {
		n, again, err = nonblockWritev(c.raw, segs)
		return n, again || (err == nil && n < want), err
	}
	c.armWriteDeadline()
	// The net.Buffers header lives on the connection: one on the stack
	// escapes into WriteTo and allocates per write.
	c.wbufs = segs
	c.pumpUnlock()
	wn, err := c.wbufs.WriteTo(c.conn)
	c.pumpRelock()
	if err == nil && wn < int64(want) {
		err = io.ErrShortWrite
	}
	return int(wn), false, err
}

// sendChunk is the sink's file step for outq[i]: up to streamChunkSize
// bytes of its range, by sendfile(2) where the transport allows it and a
// pooled copy otherwise (via reports which), advancing its offset. A
// non-blocking attempt moves them from the explicit offset; a blocking
// write seeks the file there and runs under a write deadline armed for
// the chunk. n == 0 with neither error nor again means the file ended.
// Called under writeMu.
func (c *Conn) sendChunk(i int) (n int, again, via bool, err error) {
	file, off := c.outq[i].file, c.outq[i].off
	chunk := min(c.outq[i].remaining, streamChunkSize)
	if c.nonblocking() {
		n, again, via, err = nonblockSendfile(c.raw, file, &off, int(chunk))
		c.outq[i].off = off
		return n, again, via, err
	}
	if _, err = file.Seek(off, io.SeekStart); err != nil {
		return 0, false, false, err
	}
	c.armWriteDeadline()
	c.pumpUnlock()
	wn, via, err := sendFileChunk(c.conn, file, chunk)
	c.pumpRelock()
	c.outq[i].off += wn
	return int(wn), false, via, err
}

// armWriteDeadline applies the per-chunk write deadline (see writeBound)
// before a blocking write; 0 leaves the transport unbounded.
func (c *Conn) armWriteDeadline() {
	if d, _ := c.writeBound(); d > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(d))
	}
}

// writeBound is how long one blocking write may stall: WriteTimeout, or
// with O7 on IdleTimeout where that is tighter (idle reports which), so a
// parked queue that stops moving is torn down as idle while its reader
// waits on the pump.
func (c *Conn) writeBound() (d time.Duration, idle bool) {
	d = c.srv.opts.WriteTimeout
	if it := c.srv.opts.IdleTimeout; c.srv.opts.ShutdownLongIdle && (d == 0 || it < d) {
		return it, true
	}
	return d, false
}

// pumpUnlock drops writeMu across the pump's blocking write, so senders
// append behind the parked queue meanwhile instead of waiting on the
// peer; a sender's own blocking write keeps it. pumpRelock takes it back.
func (c *Conn) pumpUnlock() {
	if c.pumping {
		c.writeMu.Unlock()
	}
}

func (c *Conn) pumpRelock() {
	if c.pumping {
		c.writeMu.Lock()
	}
}

// park hands the queue's unparked run — the item send could not finish,
// any replies queued ahead of it, and the replies that waited behind it
// up to the next held position — to the write pump, starting the pump
// when the queue was not parked before. The queue owns what it parks
// (see own). In-memory bytes are capped per connection, except for a run
// that is one reply with nothing parked ahead of it: the cap sheds a
// backlog, and one reply is not one, whatever its size (the handler
// already holds it in memory). Called under writeMu.
func (c *Conn) park() error {
	first := 0
	for first < len(c.outq) && c.outq[first].parkedAt != 0 {
		first++
	}
	end := first
	for end < len(c.outq) && !c.outq[end].held {
		end++
	}
	fresh := c.outq[first:end]
	var mem, files int64
	for i := range fresh {
		mem += int64(fresh[i].mem())
		files += fresh[i].remaining
	}
	if c.outMem.Load()+mem > c.outCap && (first > 0 || len(fresh) > 1) {
		c.sh.profile.Add(profiling.OutboundShed, 1)
		c.srv.trace.Record("communicator", "outbound cap exceeded on %d (%d queued + %d new)",
			c.handle, c.outMem.Load(), mem)
		c.failOutboundLocked(ErrOutboundOverflow)
		return ErrOutboundOverflow
	}
	now := time.Now().UnixNano()
	for i := range fresh {
		if err := fresh[i].own(); err != nil {
			c.failOutboundLocked(err)
			return err
		}
		fresh[i].parkedAt = now
	}
	c.outMem.Add(mem)
	c.outPending.Add(mem + files)
	if c.Closed() {
		// A teardown raced the park; it cannot see items added after its
		// sweep, so free them here under the same lock.
		c.freeOutboundLocked()
		return ErrConnClosed
	}
	if first == 0 && c.step(edgePark)&actRun != 0 {
		go c.writePump()
	}
	return nil
}

// writePump is the goroutine park starts, holding the pump gate: it
// flushes the parked queue with the blocking sink until the queue empties
// or the connection is torn down, then wakes readLoop and exits, going
// around again when a park landed between its last pass and the gate's
// release.
func (c *Conn) writePump() {
	for {
		c.writeMu.Lock()
		c.pumpQueueLocked()
		c.writeMu.Unlock()
		if c.step(edgePumpDone)&actAgain == 0 {
			return
		}
	}
}

// pumpQueueLocked is one pump pass over a parked queue, which ends
// empty or at a held position. Either clears the write deadline the pump
// armed, so the next non-blocking attempt does not trip over it, and an
// emptied queue closes the connection when a Close or a last reply
// waits on it. Called under writeMu.
func (c *Conn) pumpQueueLocked() {
	defer c.unparked.Broadcast()
	if !c.Closed() && c.queueParked() {
		c.pumping = true
		_, err := c.flush()
		c.pumping = false
		if err != nil {
			c.failOutboundLocked(err)
		}
	}
	switch {
	case c.Closed():
		c.freeOutboundLocked()
	case !c.queueParked():
		if d, _ := c.writeBound(); d > 0 {
			_ = c.conn.SetWriteDeadline(time.Time{})
		}
		c.closeIfDrained()
	}
}

// awaitUnparked holds readLoop while the outbound queue is parked: the
// pump wakes it once the queue empties or the connection is torn down.
func (c *Conn) awaitUnparked() {
	c.writeMu.Lock()
	for c.queueParked() && !c.Closed() {
		c.unparked.Wait()
	}
	c.writeMu.Unlock()
}

// failOutboundLocked tears the connection down mid-reply: a reply head is
// already committed to the wire, so the framing cannot be repaired. A
// write that stalled past the O7 idle bound reaps the connection as idle.
// Called under writeMu.
func (c *Conn) failOutboundLocked(err error) {
	if _, idle := c.writeBound(); idle && os.IsTimeout(err) {
		c.idleShutdown(nil)
	} else {
		c.teardown(err)
	}
	c.freeOutboundLocked()
}

// freeOutboundLocked releases what every queued item owns (see release)
// and empties the queue, held positions included. While the pump is
// mid-write it leaves the queue to the pump, which frees it once the
// write returns on the closed transport. Called under writeMu.
func (c *Conn) freeOutboundLocked() {
	if !c.pumping {
		c.releaseFrom(0)
	}
}

// releaseFrom releases outq[from:] unsent: what each item owns, the held
// positions among them, and the queue gauges, which count only the
// parked items at the queue's front. Called under writeMu.
func (c *Conn) releaseFrom(from int) {
	for i := from; i < len(c.outq); i++ {
		c.outq[i].release()
	}
	clear(c.outq[from:])
	c.outq = c.outq[:from]
	c.held = 0
	c.outMem.Store(0)
	c.outPending.Store(0)
}

// freeOutbound is the unlocked form, run by finalize on the event path:
// it waits out a pump write in flight, so the queue's leases and
// descriptors are gone before OnClose runs.
func (c *Conn) freeOutbound() {
	c.writeMu.Lock()
	for c.pumping {
		c.unparked.Wait()
	}
	c.freeOutboundLocked()
	c.writeMu.Unlock()
}
