package nserver

import (
	"errors"
	"io"
	"os"
	"syscall"
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
//     behind the parked queue. wgate — the reactor.DrainGate the read
//     side's rgate also is — elects the one pump, so a park is never lost
//     and two pumps never overlap.
//   - A transport that hides its descriptor (faultnet, wrappers, non-Linux)
//     writes blocking from the sender. Its sink never reports again, so
//     nothing ever parks.
//
// The blocking sink arms the write deadline per bounded chunk, so
// WriteTimeout means the same for every write: a stall bound, not a
// transfer cap. A peer that stops reading a parked reply fails the pump's
// next deadline, while a slow-but-progressing one may take as long as it
// needs.
//
// While the drain serves a pipelined window on the fast path the
// connection is corked (see decodeLoop): a memory-only reply is queued
// instead of written, and uncork sends the whole window with one gathered
// write when the window's buffered requests run out. A corked item is
// not parked — no pump, no queue gauges — and it is never held across a
// read.

// ErrOutboundOverflow tears down a connection whose parked replies would
// exceed the per-connection outbound memory cap: a reader this far
// behind a pipelined producer is shed, not buffered without bound.
var ErrOutboundOverflow = errors.New("nserver: outbound queue exceeds memory cap")

// maxOutboundBytes caps the in-memory bytes (head remainders + retained
// bodies) parked on one connection. File residuals are not memory and do
// not count — their cost is one descriptor.
const maxOutboundBytes = 8 << 20

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
// from the caller; an item that outlives the call — corked or parked —
// owns its head (see own), and a parked one its descriptor (see park).
type outItem struct {
	headLease *bufpool.Buffer // owns head's backing store once queued past send
	head      []byte          // unsent head
	body      []byte          // unsent body, retained by reference (bodies are GC-owned)
	file      *os.File        // the caller's descriptor, a queue-owned dup once parked
	off       int64           // next file offset
	remaining int64           // file bytes still unsent
	parkedAt  int64           // unix-nano park time; 0 while borrowed or corked
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

// own moves the unsent head into a pooled lease, so the caller may reuse
// its buffer once send returns (the Reply path releases its own lease
// then). The body stays by reference.
func (it *outItem) own() {
	if it.headLease == nil && len(it.head) > 0 {
		it.headLease = bufpool.Get(len(it.head))
		it.head = it.headLease.Bytes()[:copy(it.headLease.Bytes(), it.head)]
	}
}

// OutboundQueued returns the logical bytes (memory + file) still parked
// on this connection's outbound queue.
func (c *Conn) OutboundQueued() int64 { return c.outPending.Load() }

// send is the Send Reply step every reply takes. Under writeMu it
// appends the item to outq and flushes the queue until it is sent, the
// write fails (the connection is torn down) or a non-blocking attempt
// finds the socket full (the rest parks and send returns nil: the bytes
// are committed and will drain in order). Two cases only queue: behind
// anything parked, a reply parks unconditionally, and on a corked
// connection a memory-only reply waits for uncork. A file range flushes
// the corked replies ahead of it. Queue order is wire order either way.
func (c *Conn) send(it outItem) error {
	if c.closed.Load() {
		return ErrConnClosed
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed.Load() || c.closeAfterFlush {
		return ErrConnClosed
	}
	parked := c.queueParked()
	c.outq = append(c.outq, it)
	switch {
	case parked:
		return c.park()
	case it.remaining == 0 && c.corked.Load():
		c.outq[len(c.outq)-1].own()
		return nil
	}
	return c.flushLocked()
}

// queueParked reports whether outq waits on the write pump. Items park
// as a whole queue, so the front decides; an empty queue or one holding
// corked replies is not parked. Called under writeMu.
func (c *Conn) queueParked() bool { return len(c.outq) > 0 && c.outq[0].parkedAt != 0 }

// flushLocked runs flush for a writer holding a queue that is not
// parked (send, uncork): a write error tears the connection down, and a
// full socket parks what is left. Called under writeMu.
func (c *Conn) flushLocked() error {
	sendStart := c.sh.profile.StageStart()
	again, err := c.flush()
	c.sh.profile.ObserveSince(profiling.StageSend, sendStart)
	if err != nil {
		c.failOutboundLocked(err)
		return err
	}
	if again {
		return c.park()
	}
	return nil
}

// flush is the one loop that moves reply bytes. From the front of outq
// it gathers the memory segments of consecutive items into one vectored
// write, then streams a file range a chunk at a time, and drops each item
// once it is sent, until the queue is empty, the sink reports again (the
// items keep their unsent rest) or a write fails. A parked item's
// descriptor closes and its park-to-flushed latency is recorded as it
// leaves. Called under writeMu; the pump's sink drops it across each
// write, so items are addressed by index, never by a held pointer.
func (c *Conn) flush() (again bool, err error) {
	parked := c.queueParked()
	sent := 0
	for sent < len(c.outq) && !again && err == nil {
		it := &c.outq[sent]
		switch {
		case it.mem() > 0:
			segs, want := c.gather(sent)
			var n int
			n, again, err = c.writev(segs, want)
			clear(segs)
			if n > 0 {
				c.sh.profile.ReplyWrite()
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
				c.sh.profile.BytesStreamed(n)
				if via {
					c.sh.profile.SendfileChunk()
				} else {
					c.sh.profile.StreamFallbackChunk()
				}
			} else if err == nil && !again {
				// The file ran out under us before the promised length: the
				// head is already on the wire, so the framing cannot be repaired.
				err = ErrStreamTruncated
			}
		default:
			if it.parkedAt != 0 {
				if it.file != nil {
					it.file.Close()
				}
				c.sh.profile.ObserveFlush(time.Duration(time.Now().UnixNano() - it.parkedAt))
			}
			sent++
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
// after an item with a file range, whose file bytes go out before the
// next item's. Called under writeMu.
func (c *Conn) gather(from int) (segs [][]byte, want int) {
	segs = c.wsegs[:0]
fill:
	for i := from; i < len(c.outq); i++ {
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
		if it.remaining > 0 {
			break
		}
	}
	c.wsegs = segs
	return segs, want
}

// noteSent accounts n bytes the sink accepted in one write: the O11 byte
// counter and the activity stamp always, and for a parked queue the
// queue gauges. Called under writeMu.
func (c *Conn) noteSent(n int, mem, parked bool) {
	c.sh.profile.BytesSent(n)
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

// armWriteDeadline applies the per-chunk write deadline (WriteTimeout)
// before a blocking write; 0 leaves the transport unbounded.
func (c *Conn) armWriteDeadline() {
	if wt := c.srv.opts.WriteTimeout; wt > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(wt))
	}
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

// park hands the queue's unparked tail — the item send could not finish,
// and any corked replies ahead of it — to the write pump, starting the
// pump when the queue was not parked before. The queue takes ownership:
// each head remainder moves into a pooled lease (see own), a body is
// retained by reference, and a file range keeps its own dup of the
// descriptor (the caller closes src as soon as ReplyFile returns).
// In-memory bytes are capped per connection. Called under writeMu.
func (c *Conn) park() error {
	first := len(c.outq)
	for first > 0 && c.outq[first-1].parkedAt == 0 {
		first--
	}
	fresh := c.outq[first:]
	var mem, files int64
	for i := range fresh {
		mem += int64(fresh[i].mem())
		files += fresh[i].remaining
	}
	if c.outMem.Load()+mem > maxOutboundBytes {
		c.sh.profile.OutboundShed()
		c.srv.trace.Record("communicator", "outbound cap exceeded on %d (%d queued + %d new)",
			c.handle, c.outMem.Load(), mem)
		c.failOutboundLocked(ErrOutboundOverflow)
		return ErrOutboundOverflow
	}
	now := time.Now().UnixNano()
	for i := range fresh {
		it := &fresh[i]
		if it.remaining > 0 {
			fd, err := syscall.Dup(int(it.file.Fd()))
			if err != nil {
				c.failOutboundLocked(err)
				return err
			}
			syscall.CloseOnExec(fd)
			it.file = os.NewFile(uintptr(fd), it.file.Name())
		} else {
			it.file = nil
		}
		it.own()
		it.parkedAt = now
	}
	c.outMem.Add(mem)
	c.outPending.Add(mem + files)
	if c.closed.Load() {
		// A teardown raced the park; it cannot see items added after its
		// sweep, so free them here under the same lock.
		c.freeOutboundLocked()
		return ErrConnClosed
	}
	if first == 0 && c.wgate.Claim() {
		go c.writePump()
	}
	return nil
}

// uncork ends the drain's corked window: every corked reply leaves with
// the one flush loop — on the fast path, a pipelined window's replies in
// one gathered write — and a Close deferred behind them is due once they
// are sent. The read side calls it at each end of a decode pass (the
// buffer is empty or holds a partial request), before a punt hands the
// drain to a worker, and before a decode error tears the connection down.
func (c *Conn) uncork() {
	c.writeMu.Lock()
	c.corked.Store(false)
	closeNow := false
	switch {
	case c.closed.Load():
		c.freeOutboundLocked()
	case len(c.outq) > 0 && !c.queueParked():
		closeNow = c.flushLocked() == nil && len(c.outq) == 0 && c.closeAfterFlush
	}
	c.writeMu.Unlock()
	if closeNow {
		c.teardown(nil)
	}
}

// writePump is the goroutine park starts, holding wgate: it flushes the
// parked queue with the blocking sink until the queue empties or the
// connection is torn down, then wakes readLoop and exits, going around
// again when a park landed between its last pass and the gate's release.
func (c *Conn) writePump() {
	for {
		c.writeMu.Lock()
		closeNow := c.pumpQueueLocked()
		c.writeMu.Unlock()
		if closeNow {
			c.teardown(nil)
		}
		if c.wgate.Release() {
			return
		}
	}
}

// pumpQueueLocked is one pump pass over a parked queue. An emptied queue
// clears the write deadline the pump armed, so the next non-blocking
// attempt does not trip over it, and reports whether a Close waiting on
// the queue is now due. Called under writeMu.
func (c *Conn) pumpQueueLocked() (closeNow bool) {
	defer c.unparked.Broadcast()
	if !c.closed.Load() && c.queueParked() {
		c.pumping = true
		_, err := c.flush()
		c.pumping = false
		if err != nil {
			c.failOutboundLocked(err)
		}
	}
	if c.closed.Load() {
		c.freeOutboundLocked()
		return false
	}
	if len(c.outq) > 0 {
		return false
	}
	if c.srv.opts.WriteTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	return c.closeAfterFlush
}

// awaitUnparked holds readLoop while the outbound queue is parked: the
// pump wakes it once the queue empties or the connection is torn down.
func (c *Conn) awaitUnparked() {
	c.writeMu.Lock()
	for c.queueParked() && !c.closed.Load() {
		c.unparked.Wait()
	}
	c.writeMu.Unlock()
}

// failOutboundLocked tears the connection down mid-reply: a reply head is
// already committed to the wire, so the framing cannot be repaired.
// Called under writeMu.
func (c *Conn) failOutboundLocked(err error) {
	c.teardown(err)
	c.freeOutboundLocked()
}

// freeOutboundLocked releases every queued item's pooled lease and a
// parked item's dup'd descriptor (a borrowed one is the caller's), and
// empties the queue. While the pump is mid-write it leaves the queue to
// the pump, which frees it once the write returns on the closed
// transport. Called under writeMu.
func (c *Conn) freeOutboundLocked() {
	if c.pumping {
		return
	}
	for i := range c.outq {
		it := &c.outq[i]
		if it.headLease != nil {
			it.headLease.Release()
		}
		if it.file != nil && it.parkedAt != 0 {
			it.file.Close()
		}
	}
	clear(c.outq)
	c.outq = c.outq[:0]
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
