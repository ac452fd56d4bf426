//go:build !linux

package nserver

import (
	"errors"
	"net"
	"os"
	"syscall"

	"repro/internal/bufpool"
)

// errRawUnsupported is returned by the descriptor-level calls, which are
// unreachable off Linux: rawConnOf reports no descriptor, so every
// connection reads and writes through the portable blocking calls.
var errRawUnsupported = errors.New("nserver: descriptor-level I/O unsupported on this platform")

// rawConnOf reports no descriptor capability off Linux.
func rawConnOf(net.Conn) syscall.RawConn { return nil }

func setNotSentLowat(syscall.RawConn) {}

type leaseReader struct{}

func newLeaseReader() *leaseReader { return nil }

func (*leaseReader) readFrom(syscall.RawConn) (*bufpool.Buffer, int, error) {
	return nil, 0, errRawUnsupported
}

// sendFileChunk on non-Linux platforms always takes the portable
// pooled-buffer copy path; the build-tagged Linux variant is the only
// code that reaches for sendfile(2).
func sendFileChunk(dst net.Conn, src *os.File, limit int64) (int64, bool, error) {
	n, err := copyFileChunk(dst, src, limit)
	return n, false, err
}

func nonblockSendfile(syscall.RawConn, *os.File, *int64, int) (n int, again, via bool, err error) {
	return 0, false, false, errRawUnsupported
}

func nonblockWritev(syscall.RawConn, [][]byte) (n int, again bool, err error) {
	return 0, false, errRawUnsupported
}
