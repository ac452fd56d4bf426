//go:build linux

package nserver

import (
	"io"
	"net"
	"os"
	"syscall"

	"repro/internal/bufpool"
	"repro/internal/reactor"
)

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
// worker never parks on writability; a full socket buffer surfaces as
// again=true. Sockets the kernel refuses sendfile for fall back to a
// positional-read + non-blocking-write copy (via=false); n==0 with no
// error and again=false means src ended (the caller maps that to a
// truncation). The explicit offset means the parked residual never
// depends on src's seek position — the queue's dup'd descriptor shares
// it with the origin *os.File, which the application may still be using.
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
	n, again, werr := reactor.NonblockWritev(rc, [][]byte{buf[:nr]})
	*off += int64(n)
	return n, again, werr
}
