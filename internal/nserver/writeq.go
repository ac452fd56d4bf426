package nserver

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/profiling"
	"repro/internal/reactor"
)

// This file is the connection's one write path (the read half is drain
// in conn.go). Send, SendBuffers, Reply and ReplyFile each describe their
// reply as one outItem — head, body, then a file range — and hand it to
// send, which runs flush, the one loop that moves reply bytes. flush does
// not know whether the connection blocks or parks; it writes through the
// connection's sink (writev, sendChunk), and that is the only difference:
//
//   - A connection parked in the shard poller writes non-blocking. When
//     the socket buffer fills, the sink reports again: send parks the rest
//     of the item on a bounded per-connection outbound queue, arms
//     EPOLLOUT and returns the worker to the pool. writePump runs the same
//     flush over the queue on writability, behind wgate — the
//     reactor.DrainGate the read side's rgate also is — so an edge is
//     never lost and two flushes never overlap.
//   - Any other connection (goroutine read path, fd-hiding wrapper,
//     non-Linux) writes blocking, under a write deadline armed per bounded
//     chunk. Its sink never reports again, so nothing ever parks.
//
// O7's WriteTimeout means the same on both: a stall bound, not a transfer
// cap. The blocking sink re-arms the deadline per chunk; a parked queue
// has no blocking write to deadline against, so the scavenger reaps one
// that fails to move a full progress quantum within WriteTimeout (the
// slowloris-on-write defense), while a slow-but-progressing reader may
// take as long as it needs.

// ErrSlowReader tears down a connection whose parked outbound queue
// failed to drain a progress quantum within WriteTimeout.
var ErrSlowReader = errors.New("nserver: outbound flush exceeded WriteTimeout")

// ErrOutboundOverflow tears down a connection whose parked replies would
// exceed the per-connection outbound memory cap: a reader this far
// behind a pipelined producer is shed, not buffered without bound.
var ErrOutboundOverflow = errors.New("nserver: outbound queue exceeds memory cap")

// WriteProgressQuantum is the drain progress the scavenger demands per
// WriteTimeout window on a parked connection. Refreshing the stall clock
// on any byte would let a peer reading one byte per window hold a large
// reply open forever — the bug this path exists to close — so the clock
// only refreshes when a full quantum has moved.
const WriteProgressQuantum = 64 << 10

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

// outItem is one reply in wire order: head, then body, then remaining
// bytes of file starting at off. Until it parks, every field borrows from
// the caller; park hands ownership to the queue (see park).
type outItem struct {
	headLease *bufpool.Buffer // owns head's backing store once parked
	head      []byte          // unsent head
	body      []byte          // unsent body, retained by reference (bodies are GC-owned)
	file      *os.File        // the caller's descriptor, a queue-owned dup once parked
	off       int64           // next file offset
	remaining int64           // file bytes still unsent
	parkedAt  int64           // unix-nano park time; 0 while the caller still owns the item
}

// consume drops n sent bytes from the front of the memory segments,
// releasing a parked head's lease as soon as the head is gone.
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

// OutboundQueued returns the logical bytes (memory + file) still parked
// on this connection's outbound queue.
func (c *Conn) OutboundQueued() int64 { return c.outPending.Load() }

// send is the Send Reply step every reply takes. Under writeMu it flushes
// the item until it is sent, the write fails (the connection is torn
// down) or a parking connection's socket fills (the rest parks and send
// returns nil: the bytes are committed and will drain in order). Once
// anything is parked, later replies queue behind it unconditionally:
// queue order is wire order.
func (c *Conn) send(it outItem) error {
	if c.closed.Load() {
		return ErrConnClosed
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed.Load() || c.closeAfterFlush {
		return ErrConnClosed
	}
	if len(c.outq) > 0 {
		return c.park(&it)
	}
	sendStart := c.sh.profile.StageStart()
	again, err := c.flush(&it)
	c.sh.profile.ObserveSince(profiling.StageSend, sendStart)
	if err != nil {
		c.teardown(err)
		return err
	}
	if again {
		return c.park(&it)
	}
	return nil
}

// flush is the one loop that moves reply bytes: the memory segments by
// vectored write, then the file range a chunk at a time, until the item
// is sent, the sink reports again (the item keeps its unsent rest), or a
// write fails. Called under writeMu.
func (c *Conn) flush(it *outItem) (again bool, err error) {
	for len(it.head)+len(it.body) > 0 {
		var n int
		n, again, err = c.writev(it.head, it.body)
		c.noteSent(it, n, true)
		it.consume(n)
		if err != nil || again {
			return again, err
		}
	}
	for it.remaining > 0 {
		n, again, via, err := c.sendChunk(it)
		if n > 0 {
			it.remaining -= int64(n)
			c.noteSent(it, n, false)
			c.sh.profile.BytesStreamed(n)
			if via {
				c.sh.profile.SendfileChunk()
			} else {
				c.sh.profile.StreamFallbackChunk()
			}
		}
		if err != nil || again {
			return again, err
		}
		if n == 0 {
			// The file ran out under us before the promised length: the
			// head is already on the wire, so the framing cannot be repaired.
			return false, ErrStreamTruncated
		}
	}
	return false, nil
}

// noteSent accounts n bytes the sink accepted: the O11 byte counter and
// the activity stamp always; for a parked item also the queue gauges and
// the O7 progress clock, which refreshes only per full quantum. Called
// under writeMu.
func (c *Conn) noteSent(it *outItem, n int, mem bool) {
	if n <= 0 {
		return
	}
	c.sh.profile.BytesSent(n)
	c.touch()
	if it.parkedAt == 0 {
		return
	}
	if mem {
		c.outMem.Add(-int64(n))
	}
	c.outPending.Add(-int64(n))
	c.outProgress += int64(n)
	if c.outProgress >= WriteProgressQuantum {
		c.outProgress = 0
		c.outStamp.Store(time.Now().UnixNano())
	}
}

// writev is the sink's vectored write of the memory segments. A parking
// connection takes one non-blocking writev(2); a full socket buffer —
// EAGAIN, or a short count, which writev reports without EAGAIN — comes
// back as again. Any other connection blocks under a freshly armed write
// deadline, at most writeFlushChunk bytes per call when WriteTimeout is
// set, and a short count without an error is io.ErrShortWrite: the rest of
// the reply must never silently vanish from the wire. Called under writeMu.
func (c *Conn) writev(head, body []byte) (n int, again bool, err error) {
	want := len(head) + len(body)
	if c.polled.Load() {
		n, again, err = reactor.NonblockWritev(c.raw, head, body)
		return n, again || (err == nil && n < want), err
	}
	if c.srv.opts.WriteTimeout > 0 && want > writeFlushChunk {
		if len(head) >= writeFlushChunk {
			head, body = head[:writeFlushChunk], nil
		} else {
			body = body[:writeFlushChunk-len(head)]
		}
		want = writeFlushChunk
	}
	c.armWriteDeadline()
	var wn int64
	if len(body) == 0 {
		var w int
		w, err = c.conn.Write(head)
		wn = int64(w)
	} else {
		var segs [2][]byte
		bufs := net.Buffers(segs[:0])
		if len(head) > 0 {
			bufs = append(bufs, head)
		}
		bufs = append(bufs, body)
		wn, err = bufs.WriteTo(c.conn)
	}
	if err == nil && wn < int64(want) {
		err = io.ErrShortWrite
	}
	return int(wn), false, err
}

// sendChunk is the sink's file step: up to streamChunkSize bytes of the
// item's range, by sendfile(2) where the transport allows it and a pooled
// copy otherwise (via reports which), advancing it.off. A parking
// connection moves them non-blocking from the explicit offset; any other
// connection seeks the file there and blocks under a write deadline armed
// for the chunk. n == 0 with neither error nor again means the file ended.
// Called under writeMu.
func (c *Conn) sendChunk(it *outItem) (n int, again, via bool, err error) {
	chunk := it.remaining
	if chunk > streamChunkSize {
		chunk = streamChunkSize
	}
	if c.polled.Load() {
		// A local offset: handing out &it.off would move every reply's
		// item to the heap, since send's item lives on its stack.
		off := it.off
		n, again, via, err = nonblockSendfile(c.raw, it.file, &off, int(chunk))
		it.off = off
		return n, again, via, err
	}
	if _, err = it.file.Seek(it.off, io.SeekStart); err != nil {
		return 0, false, false, err
	}
	c.armWriteDeadline()
	wn, via, err := sendFileChunk(c.conn, it.file, chunk)
	it.off += wn
	return int(wn), false, via, err
}

// armWriteDeadline applies the per-chunk write deadline (WriteTimeout)
// before a blocking write; 0 leaves the transport unbounded.
func (c *Conn) armWriteDeadline() {
	if wt := c.srv.opts.WriteTimeout; wt > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(wt))
	}
}

// park queues the unsent rest of it behind anything already parked and
// arms EPOLLOUT; writePump flushes it from there. The queue takes
// ownership: the head remainder moves into a fresh pooled lease (the
// caller releases its own when Reply returns), the body is retained by
// reference, and a file range keeps its own dup of the descriptor (the
// caller closes src as soon as ReplyFile returns). In-memory bytes are
// capped per connection. Called under writeMu on a parking connection.
func (c *Conn) park(it *outItem) error {
	mem := int64(len(it.head) + len(it.body))
	if c.outMem.Load()+mem > maxOutboundBytes {
		c.sh.profile.OutboundShed()
		c.srv.trace.Record("communicator", "outbound cap exceeded on %d (%d queued + %d new)",
			c.handle, c.outMem.Load(), mem)
		c.failOutboundLocked(ErrOutboundOverflow)
		return ErrOutboundOverflow
	}
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
	if len(it.head) > 0 {
		it.headLease = bufpool.Get(len(it.head))
		it.head = it.headLease.Bytes()[:copy(it.headLease.Bytes(), it.head)]
	}
	it.parkedAt = time.Now().UnixNano()
	if len(c.outq) == 0 {
		// Start the O7 progress clock the moment the queue goes
		// non-empty; the scavenger reads it against WriteTimeout.
		c.outProgress = 0
		c.outStamp.Store(it.parkedAt)
	}
	c.outq = append(c.outq, *it)
	c.outMem.Add(mem)
	c.outPending.Add(mem + it.remaining)
	if err := c.sh.poller.ArmWrite(c.fd); err != nil && !c.closed.Load() {
		// The poller refused (closing shard / raced teardown): nothing
		// will ever drain this queue, so fail the connection now.
		c.failOutboundLocked(err)
		return err
	}
	if c.closed.Load() {
		// A teardown raced the park; it cannot see items added after its
		// sweep, so free them here under the same lock.
		c.freeOutboundLocked()
		return ErrConnClosed
	}
	return nil
}

// writePump handles one WriteReady event (an EPOLLOUT edge): it claims
// wgate and runs flush over the parked queue, FIFO, until the queue
// empties or the socket fills again. The flush runs under writeMu, so it
// serializes against writers appending behind it.
func (c *Conn) writePump() {
	if !c.wgate.Claim() {
		return
	}
	for {
		c.writeMu.Lock()
		closeNow := c.flushQueueLocked()
		c.writeMu.Unlock()
		if closeNow {
			c.teardown(nil)
		}
		if c.wgate.Release() {
			return
		}
	}
}

// flushQueueLocked flushes parked items in order, closing each one's
// resources and recording how long it sat parked once it is sent. An
// emptied queue drops EPOLLOUT interest (idempotent) and reports whether
// a Close that was waiting on it is now due. Called under writeMu.
func (c *Conn) flushQueueLocked() (closeNow bool) {
	for len(c.outq) > 0 {
		if c.closed.Load() {
			c.freeOutboundLocked()
			return false
		}
		it := &c.outq[0]
		again, err := c.flush(it)
		if err != nil {
			c.failOutboundLocked(err)
			return false
		}
		if again {
			return false
		}
		if it.file != nil {
			it.file.Close()
		}
		c.sh.profile.ObserveFlush(time.Duration(time.Now().UnixNano() - it.parkedAt))
		c.outq[0] = outItem{}
		c.outq = c.outq[1:]
	}
	if c.closed.Load() {
		return false
	}
	c.outq = nil
	c.outStamp.Store(0)
	c.outProgress = 0
	_ = c.sh.poller.DisarmWrite(c.fd)
	return c.closeAfterFlush
}

// failOutboundLocked tears the connection down mid-reply: a reply head is
// already committed to the wire, so the framing cannot be repaired.
// Called under writeMu.
func (c *Conn) failOutboundLocked(err error) {
	c.teardown(err)
	c.freeOutboundLocked()
}

// freeOutboundLocked releases every parked item's pooled lease and dup'd
// descriptor and empties the queue. Called under writeMu.
func (c *Conn) freeOutboundLocked() {
	for i := range c.outq {
		it := &c.outq[i]
		if it.headLease != nil {
			it.headLease.Release()
		}
		if it.file != nil {
			it.file.Close()
		}
	}
	c.outq = c.outq[:0]
	c.outMem.Store(0)
	c.outPending.Store(0)
	c.outStamp.Store(0)
	c.outProgress = 0
}

// freeOutbound is the unlocked form, run by finalize on the event path.
func (c *Conn) freeOutbound() {
	c.writeMu.Lock()
	c.freeOutboundLocked()
	c.writeMu.Unlock()
}

// writeStalledFor reports whether the connection's outbound queue is
// non-empty and has not moved a progress quantum for longer than wt —
// the scavenger's slow-reader victim test.
func (c *Conn) writeStalledFor(wt time.Duration) bool {
	if c.outPending.Load() <= 0 {
		return false
	}
	st := c.outStamp.Load()
	return st > 0 && time.Now().UnixNano()-st > int64(wt)
}
