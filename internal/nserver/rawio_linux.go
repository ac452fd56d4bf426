//go:build linux

package nserver

import (
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"unsafe"

	"repro/internal/bufpool"
)

// This file holds the connection's descriptor-level I/O: the read that
// leases its buffer only once the socket is readable, and the write
// sink's non-blocking first attempts (writev, sendfile). All of it goes
// through the transport's syscall.RawConn, so the Go netpoller keeps
// owning the descriptor, its deadlines and its close.

// rawConnOf returns the descriptor capability of a transport that
// exposes one, or nil for transports that hide it (faultnet wrappers,
// TLS-like decorators), which keep the portable blocking calls.
func rawConnOf(nc net.Conn) syscall.RawConn {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return rc
}

// tcpNotSentLowat is Linux's TCP_NOTSENT_LOWAT socket option, which
// stdlib syscall does not name.
const tcpNotSentLowat = 25

// setNotSentLowat caps the bytes a socket holds unsent at notSentLowat.
// The kernel then wakes a writer blocked on the socket whenever fewer
// are left, instead of once half of a send buffer autotuned to
// megabytes has drained, so a blocking write under a write bound
// returns, and counts as progress, while its peer reads steadily. A
// failure leaves the socket's default, which only loosens that wake.
func setNotSentLowat(rc syscall.RawConn) {
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpNotSentLowat, notSentLowat)
	})
}

// leaseReader is readLoop's RawConn.Read callback and its result. The
// callback is bound once per connection: a method value built per read
// would escape into the RawConn interface and allocate on every chunk.
type leaseReader struct {
	lease *bufpool.Buffer
	n     int
	err   error
	fn    func(fd uintptr) bool
}

func newLeaseReader() *leaseReader {
	lr := new(leaseReader)
	lr.fn = lr.read
	return lr
}

// read leases a chunk and reads the socket into it. On EAGAIN it
// releases the lease and reports false: RawConn.Read then parks the
// goroutine on the netpoller, under the read deadline, holding no buffer.
func (lr *leaseReader) read(fd uintptr) bool {
	lease := bufpool.Get(readChunkSize)
	for {
		n, err := syscall.Read(int(fd), lease.Bytes())
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			lease.Release()
			return false
		}
		lr.lease, lr.n, lr.err = lease, max(n, 0), err
		return true
	}
}

// readFrom returns the next chunk read from rc, leased on readiness, and
// io.EOF once the peer has closed its side. A nil lease comes back only
// with an error: a deadline, or a close, that ended the wait.
func (lr *leaseReader) readFrom(rc syscall.RawConn) (*bufpool.Buffer, int, error) {
	if err := rc.Read(lr.fn); err != nil {
		return nil, 0, err
	}
	lease, n, err := lr.lease, lr.n, lr.err
	lr.lease, lr.err = nil, nil
	switch {
	case err != nil:
		err = os.NewSyscallError("read", err)
	case n == 0:
		err = io.EOF
	}
	return lease, n, err
}

// sendFileChunk transmits up to limit bytes of src (from its current
// offset) to dst. On a TCP transport, net.TCPConn.ReadFrom with a
// file-backed LimitedReader issues sendfile(2): the bytes move
// kernel-side without entering user space, honoring the armed write
// deadline. Wrapped transports (tests, fault injection) cannot take the
// syscall path and fall back to the pooled copy loop. The bool result
// reports whether sendfile carried the chunk.
func sendFileChunk(dst net.Conn, src *os.File, limit int64) (int64, bool, error) {
	if tc, ok := dst.(*net.TCPConn); ok {
		n, err := tc.ReadFrom(&io.LimitedReader{R: src, N: limit})
		return n, true, err
	}
	n, err := copyFileChunk(dst, src, limit)
	return n, false, err
}

// nonblockSendfile moves up to limit bytes of src starting at *off to
// the raw socket with one non-blocking sendfile(2), advancing *off by
// the bytes moved. The callback always returns true, so the calling
// goroutine never parks on writability; a full socket buffer surfaces as
// again=true. Sockets the kernel refuses sendfile for fall back to a
// positional-read + non-blocking-write copy (via=false); n==0 with no
// error and again=false means src ended (the caller maps that to a
// truncation). The explicit offset means the first attempt never depends
// on src's seek position.
func nonblockSendfile(rc syscall.RawConn, src *os.File, off *int64, limit int) (n int, again, via bool, err error) {
	var sn int
	var serr error
	if cerr := rc.Write(func(fd uintptr) bool {
		for {
			sn, serr = syscall.Sendfile(int(fd), int(src.Fd()), off, limit)
			if serr == syscall.EINTR {
				continue
			}
			return true
		}
	}); cerr != nil {
		return 0, false, true, cerr
	}
	switch serr {
	case nil:
		if sn < 0 {
			sn = 0
		}
		return sn, false, true, nil
	case syscall.EAGAIN:
		return 0, true, true, nil
	case syscall.EINVAL, syscall.ENOSYS, syscall.ENOTSOCK, syscall.EOPNOTSUPP:
		n, again, err = nonblockCopyChunk(rc, src, off, limit)
		return n, again, false, err
	default:
		return 0, false, true, serr
	}
}

// nonblockCopyChunk is nonblockSendfile's portable fallback: one
// positional read into a pooled buffer, one non-blocking vectored write.
// The offset only advances by the bytes the socket accepted, so a short
// write re-reads the overlap next round instead of buffering it — the
// residual state stays exactly (offset, remaining).
func nonblockCopyChunk(rc syscall.RawConn, src *os.File, off *int64, limit int) (int, bool, error) {
	lease := bufpool.Get(readChunkSize)
	defer lease.Release()
	buf := lease.Bytes()
	if limit < len(buf) {
		buf = buf[:limit]
	}
	nr, rerr := src.ReadAt(buf, *off)
	if nr == 0 {
		if rerr == io.EOF {
			return 0, false, nil
		}
		return 0, false, rerr
	}
	n, again, werr := nonblockWritev(rc, [][]byte{buf[:nr]})
	*off += int64(n)
	return n, again, werr
}

// nonblockWritev performs one non-blocking vectored write of segs, in
// order, on a raw connection; empty segments are skipped, and segs may
// hold at most 1024 of them (IOV_MAX). The callback always returns true,
// so the calling goroutine never parks on writability — EAGAIN surfaces
// as again=true, the cue to park the residual. A short count with
// again=false is not an error: writev(2) reports partial progress on a
// full socket buffer without EAGAIN, and the caller parks the remainder
// exactly as it would after an explicit EAGAIN. The call allocates
// nothing: its iovec and the callback RawConn.Write takes come from a
// pool.
func nonblockWritev(rc syscall.RawConn, segs [][]byte) (n int, again bool, err error) {
	w := writevCalls.Get().(*writevCall)
	for _, seg := range segs {
		if len(seg) > 0 {
			w.iov = append(w.iov, syscall.Iovec{Base: &seg[0]})
			w.iov[len(w.iov)-1].SetLen(len(seg))
		}
	}
	if len(w.iov) > 0 {
		if err = rc.Write(w.call); err == nil {
			n, err = w.n, w.err
		}
	}
	clear(w.iov)
	w.iov, w.n, w.err = w.iov[:0], 0, nil
	writevCalls.Put(w)
	if err == syscall.EAGAIN {
		return 0, true, nil
	}
	return n, false, err
}

// writevCall is the state of one nonblockWritev: the iovec the kernel
// reads and the result, with the callback bound to them once, when the
// pool makes the value — a closure built per call would escape into the
// RawConn interface and allocate every time.
type writevCall struct {
	iov  []syscall.Iovec
	n    int
	err  error
	call func(fd uintptr) bool
}

var writevCalls = sync.Pool{New: func() any {
	w := new(writevCall)
	w.call = w.writev
	return w
}}

// writev is the RawConn.Write callback: one writev(2), retried on EINTR.
func (w *writevCall) writev(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd,
			uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			w.n, w.err = 0, errno
		} else {
			w.n, w.err = int(r1), nil
		}
		return true
	}
}
