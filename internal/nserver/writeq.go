package nserver

import (
	"errors"
	"os"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/profiling"
	"repro/internal/reactor"
)

// This file is the write half of the kernel-event story (the read half
// is drain in conn.go): on a polled connection, Send/Reply/ReplyFile
// attempt their writev/sendfile non-blocking, and when the socket buffer
// fills they park the residual — pooled head remainder, body by
// reference, file offset behind a dup'd descriptor — in a bounded
// per-connection outbound queue, arm EPOLLOUT, and return the worker to
// the pool. The shard drains the queue on writability through a
// reactor.DrainGate, the same oneshot/re-arm CAS machine the read side
// claims, so a writability edge is never lost and two drains never run
// concurrently. The O7 write deadline maps onto this path as a progress
// clock: the scavenger reaps a connection whose queue fails to move a
// full progress quantum within WriteTimeout (the slowloris-on-write
// defense), while a slow-but-progressing reader may take as long as it
// needs.

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

// outItem is one parked write: the unsent remainder of a reply in wire
// order. Memory segments drain before the file range.
type outItem struct {
	headLease *bufpool.Buffer // owns head's backing store (nil when head went out before parking)
	head      []byte          // unsent head remainder
	body      []byte          // unsent body remainder, retained by reference (bodies are GC-owned)
	file      *os.File        // queue-owned dup'd descriptor (nil for memory-only items)
	off       int64           // next file offset
	remaining int64           // file bytes still unsent
	enqueued  int64           // unix-nano at park time (flush-latency histogram)
}

// canParkWrites reports whether this connection takes the non-blocking
// write path: only polled connections have a descriptor in the shard's
// epoll set to arm EPOLLOUT on. Fallback transports (faultnet, fd-hiding
// wrappers, non-Linux) never set polled and keep the blocking path.
func (c *Conn) canParkWrites() bool { return c.polled.Load() }

// OutboundQueued returns the logical bytes (memory + file) still parked
// on this connection's outbound queue.
func (c *Conn) OutboundQueued() int64 { return c.outPending.Load() }

// enqueueOutLocked parks a residual. The head remainder is copied into a
// fresh pooled lease — the caller's lease is released when its Reply
// returns — while body bytes are retained by reference and file state
// arrives already owned (dup'd) by the caller. Called under writeMu.
func (c *Conn) enqueueOutLocked(head, body []byte, file *os.File, off, remaining int64) error {
	mem := int64(len(head) + len(body))
	if c.outMem.Load()+mem > maxOutboundBytes {
		if file != nil {
			file.Close()
		}
		c.sh.profile.OutboundShed()
		c.srv.trace.Record("communicator", "outbound cap exceeded on %d (%d queued + %d new)",
			c.handle, c.outMem.Load(), mem)
		c.teardown(ErrOutboundOverflow)
		c.freeOutboundLocked()
		return ErrOutboundOverflow
	}
	it := outItem{
		body:      body,
		file:      file,
		off:       off,
		remaining: remaining,
		enqueued:  time.Now().UnixNano(),
	}
	if len(head) > 0 {
		it.headLease = bufpool.Get(len(head))
		it.head = it.headLease.Bytes()[:len(head)]
		copy(it.head, head)
	}
	empty := len(c.outq) == 0
	c.outq = append(c.outq, it)
	c.outMem.Add(mem)
	c.outPending.Add(mem + remaining)
	if empty {
		// Start the O7 progress clock the moment the queue goes
		// non-empty; the scavenger reads it against WriteTimeout.
		c.outProgress = 0
		c.outStamp.Store(it.enqueued)
	}
	if err := c.sh.poller.ArmWrite(c.fd); err != nil && !c.closed.Load() {
		// The poller refused (closing shard / raced teardown): nothing
		// will ever drain this queue, so fail the connection now.
		c.teardown(err)
		c.freeOutboundLocked()
		return err
	}
	if c.closed.Load() {
		// A teardown raced the enqueue; it cannot see items added after
		// its sweep, so free them here under the same lock.
		c.freeOutboundLocked()
		return ErrConnClosed
	}
	return nil
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

// noteDrainLocked accounts n flushed bytes: O11 counters, the memory cap
// gauge when the bytes were queue memory, and the O7 progress clock,
// which re-arms only per full quantum. Called under writeMu.
func (c *Conn) noteDrainLocked(n int, mem bool) {
	c.sh.profile.BytesSent(n)
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

// failOutboundLocked tears the connection down mid-drain: a parked reply
// head is already committed to the wire, so the framing cannot be
// repaired. Called under writeMu.
func (c *Conn) failOutboundLocked(err error) {
	c.teardown(err)
	c.freeOutboundLocked()
}

// flushOutboundLocked drains parked items in FIFO order until the socket
// would block (true) or the queue empties (false). Called under writeMu.
func (c *Conn) flushOutboundLocked() (blocked bool) {
	for len(c.outq) > 0 {
		if c.closed.Load() {
			c.freeOutboundLocked()
			return false
		}
		it := &c.outq[0]
		if len(it.head) > 0 || len(it.body) > 0 {
			n, again, err := reactor.NonblockWritev(c.raw, it.head, it.body)
			if n > 0 {
				c.noteDrainLocked(n, true)
				c.touch()
				if h := len(it.head); n < h {
					it.head = it.head[n:]
					n = 0
				} else {
					it.head = nil
					if it.headLease != nil {
						it.headLease.Release()
						it.headLease = nil
					}
					n -= h
				}
				it.body = it.body[n:]
			}
			if err != nil {
				c.failOutboundLocked(err)
				return false
			}
			if again || len(it.head) > 0 || len(it.body) > 0 {
				return true
			}
		}
		if it.remaining > 0 {
			chunk := it.remaining
			if chunk > streamChunkSize {
				chunk = streamChunkSize
			}
			n, again, via, err := nonblockSendfile(c.raw, it.file, &it.off, int(chunk))
			if n > 0 {
				it.remaining -= int64(n)
				c.noteDrainLocked(n, false)
				c.sh.profile.BytesStreamed(n)
				if via {
					c.sh.profile.SendfileChunk()
				} else {
					c.sh.profile.StreamFallbackChunk()
				}
				c.touch()
			}
			if err != nil {
				c.failOutboundLocked(err)
				return false
			}
			if again {
				return true
			}
			if n == 0 && it.remaining > 0 {
				// The file ran out under us before the promised length.
				c.failOutboundLocked(ErrStreamTruncated)
				return false
			}
			if it.remaining > 0 {
				continue
			}
		}
		// Item fully flushed: close its resources and record how long the
		// reply sat parked end to end.
		if it.file != nil {
			it.file.Close()
		}
		c.sh.profile.ObserveFlush(time.Duration(time.Now().UnixNano() - it.enqueued))
		c.outq[0] = outItem{}
		c.outq = c.outq[1:]
		if len(c.outq) == 0 {
			c.outq = nil
		}
	}
	c.outStamp.Store(0)
	c.outProgress = 0
	return false
}

// writePump handles one WriteReady event (an EPOLLOUT edge). The
// DrainGate absorbs edges that land mid-drain exactly as the read side's
// rgate does; the flush itself runs under writeMu so it serializes
// against writers appending to the queue.
func (c *Conn) writePump() {
	if !c.wgate.Claim() {
		return
	}
	for {
		c.writeMu.Lock()
		blocked := c.flushOutboundLocked()
		if !blocked && !c.closed.Load() {
			if len(c.outq) == 0 {
				// Drained dry: drop EPOLLOUT interest (idempotent) and
				// honor a graceful close that was waiting on the flush.
				_ = c.sh.poller.DisarmWrite(c.fd)
				if c.closeAfterFlush {
					c.writeMu.Unlock()
					c.teardown(nil)
					if c.wgate.Release() {
						return
					}
					continue
				}
			}
		}
		c.writeMu.Unlock()
		if c.wgate.Release() {
			return
		}
	}
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

// trySendNonblockLocked is the event-driven Send Reply step for memory
// replies: one non-blocking writev, parking any remainder. A non-nil
// return is a connection-fatal error (the teardown already ran); a
// parked residual returns nil — the bytes are committed and will drain
// in order. Called under writeMu on a polled connection.
//
// Contract: body bytes may be retained by reference until flushed, so
// callers must not mutate them after the call. Head bytes are copied.
func (c *Conn) trySendNonblockLocked(head, body []byte) error {
	if c.closed.Load() || c.closeAfterFlush {
		return ErrConnClosed
	}
	if len(c.outq) > 0 {
		// Wire order: once anything is parked, later replies queue
		// behind it unconditionally.
		return c.enqueueOutLocked(head, body, nil, 0, 0)
	}
	sendStart := c.sh.profile.StageStart()
	n, again, err := reactor.NonblockWritev(c.raw, head, body)
	c.sh.profile.ObserveSince(profiling.StageSend, sendStart)
	if n > 0 {
		c.sh.profile.BytesSent(n)
		c.touch()
		if h := len(head); n < h {
			head = head[n:]
			n = 0
		} else {
			head = nil
			n -= h
		}
		body = body[n:]
	}
	if err != nil {
		c.teardown(err)
		return err
	}
	if !again && len(head) == 0 && len(body) == 0 {
		return nil
	}
	return c.enqueueOutLocked(head, body, nil, 0, 0)
}

// sendFileNonblockLocked is the event-driven Send Reply step for file
// replies: head/body writev then sendfile chunks, all non-blocking; on
// EAGAIN the remainder parks behind a dup'd descriptor the queue owns
// (the caller closes src as soon as ReplyFile returns). Called under
// writeMu on a polled connection.
func (c *Conn) sendFileNonblockLocked(head, body []byte, src *os.File, offset, length int64) error {
	if c.closed.Load() || c.closeAfterFlush {
		return ErrConnClosed
	}
	sendStart := c.sh.profile.StageStart()
	done := func(err error) error {
		c.sh.profile.ObserveSince(profiling.StageSend, sendStart)
		return err
	}
	if len(c.outq) > 0 {
		return done(c.parkFileLocked(head, body, src, offset, length))
	}
	for len(head) > 0 || len(body) > 0 {
		n, again, err := reactor.NonblockWritev(c.raw, head, body)
		if n > 0 {
			c.sh.profile.BytesSent(n)
			c.touch()
			if h := len(head); n < h {
				head = head[n:]
				n = 0
			} else {
				head = nil
				n -= h
			}
			body = body[n:]
		}
		if err != nil {
			c.teardown(err)
			return done(err)
		}
		if again || len(head) > 0 || len(body) > 0 {
			return done(c.parkFileLocked(head, body, src, offset, length))
		}
	}
	off, remaining := offset, length
	for remaining > 0 {
		chunk := remaining
		if chunk > streamChunkSize {
			chunk = streamChunkSize
		}
		n, again, via, err := nonblockSendfile(c.raw, src, &off, int(chunk))
		if n > 0 {
			remaining -= int64(n)
			c.sh.profile.BytesSent(n)
			c.sh.profile.BytesStreamed(n)
			if via {
				c.sh.profile.SendfileChunk()
			} else {
				c.sh.profile.StreamFallbackChunk()
			}
			c.touch()
		}
		if err != nil {
			c.teardown(err)
			return done(err)
		}
		if again {
			return done(c.parkFileLocked(nil, nil, src, off, remaining))
		}
		if n == 0 && remaining > 0 {
			err = ErrStreamTruncated
			c.teardown(err)
			return done(err)
		}
	}
	c.touch()
	return done(nil)
}

// parkFileLocked parks a file reply residual. The queue takes its own
// dup of the descriptor because the caller closes src immediately after
// ReplyFile returns. A zero-length remainder parks only the memory
// segments. Called under writeMu.
func (c *Conn) parkFileLocked(head, body []byte, src *os.File, off, remaining int64) error {
	var owned *os.File
	if remaining > 0 {
		dupFD, err := syscall.Dup(int(src.Fd()))
		if err != nil {
			c.teardown(err)
			c.freeOutboundLocked()
			return err
		}
		syscall.CloseOnExec(dupFD)
		owned = os.NewFile(uintptr(dupFD), src.Name())
	}
	return c.enqueueOutLocked(head, body, owned, off, remaining)
}
