//go:build !linux

package nserver

import (
	"errors"
	"net"
	"os"
	"syscall"
)

// sendFileChunk on non-Linux platforms always takes the portable
// pooled-buffer copy path; the build-tagged Linux variant is the only
// code that reaches for sendfile(2).
func sendFileChunk(dst net.Conn, src *os.File, limit int64) (int64, bool, error) {
	n, err := copyFileChunk(dst, src, limit)
	return n, false, err
}

// nonblockSendfile is unreachable off Linux: connections are only ever
// polled where reactor.PollerSupported holds, and only a polled
// connection's sink writes non-blocking.
func nonblockSendfile(rc syscall.RawConn, src *os.File, off *int64, limit int) (n int, again, via bool, err error) {
	return 0, false, false, errors.New("nserver: non-blocking sendfile unsupported on this platform")
}
