// Package bufpool provides the leased byte buffers of the N-Server hot
// path. Every request used to pay several short-lived allocations — the
// per-read chunk copy in the Communicator, the response-head slice in the
// encoder, the 32 KiB scratch of each data transfer. bufpool replaces them
// with sync.Pool-backed buffers in power-of-two size classes, so the
// steady-state serve pipeline recycles a handful of buffers instead of
// pressuring the garbage collector once per request.
//
// Ownership rule (documented in DESIGN.md §5): the component that calls
// Get leases the buffer and is responsible for exactly one Release, unless
// it explicitly hands the lease to another component — the Communicator's
// read loop, for example, leases a chunk, queues it on the connection's
// inbox, and the drain that pops it releases it after the Decode Request
// step has consumed the bytes. A released buffer must not be touched again.
package bufpool

import "sync"

// Size classes: 512 B up to 32 KiB in powers of two. 32 KiB matches the
// Communicator's read chunk and the data-transfer scratch; 512 B holds any
// realistic response head. Requests above the largest class fall back to a
// plain allocation that is dropped on Release.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 15 // 32 KiB
	numClasses   = maxClassBits - minClassBits + 1
)

// MaxPooled is the largest buffer size served from a pool.
const MaxPooled = 1 << maxClassBits

var pools [numClasses]sync.Pool

// Buffer is one leased buffer: a fixed backing array from a size class and
// the number of bytes currently in use.
type Buffer struct {
	b        []byte
	n        int
	class    int // pool index; -1 for oversized, unpooled buffers
	released bool
}

// classFor returns the smallest size class holding n bytes (-1 when n
// exceeds the largest class).
func classFor(n int) int {
	size := 1 << minClassBits
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// Get leases a buffer of length n. The contents are not zeroed; callers
// that read into the buffer overwrite it anyway.
func Get(n int) *Buffer {
	class := classFor(n)
	if class < 0 {
		return &Buffer{b: make([]byte, n), n: n, class: -1}
	}
	if v := pools[class].Get(); v != nil {
		buf := v.(*Buffer)
		buf.n = n
		buf.released = false
		return buf
	}
	return &Buffer{b: make([]byte, 1<<(minClassBits+class)), n: n, class: class}
}

// Bytes returns the in-use portion of the buffer (length as set by Get or
// SetLen). The slice aliases the pooled backing array: it is invalid after
// Release.
func (b *Buffer) Bytes() []byte { return b.b[:b.n] }

// Cap returns the full capacity of the backing array.
func (b *Buffer) Cap() int { return len(b.b) }

// SetLen shrinks or grows the in-use length, clamped to the capacity. The
// read loop uses it to record how many bytes a Read returned.
func (b *Buffer) SetLen(n int) {
	if n < 0 {
		n = 0
	}
	if n > len(b.b) {
		n = len(b.b)
	}
	b.n = n
}

// Release returns the buffer to its pool. Releasing twice is a lease
// ownership bug and panics rather than silently corrupting the pool.
func (b *Buffer) Release() {
	if b.released {
		panic("bufpool: buffer released twice")
	}
	b.released = true
	if b.class < 0 {
		return // oversized buffers are left to the garbage collector
	}
	b.n = 0
	pools[b.class].Put(b)
}
