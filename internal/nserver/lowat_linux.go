//go:build linux

package nserver

import "syscall"

//nsgen:if WriteBound

// tcpNotSentLowat is Linux's TCP_NOTSENT_LOWAT socket option, which
// stdlib syscall does not name.
const tcpNotSentLowat = 25

// setNotSentLowat caps the bytes a socket holds unsent at lowat. The
// kernel then wakes a writer blocked on the socket whenever fewer are
// left, instead of once half of a send buffer autotuned to megabytes
// has drained, so a blocking write under a write bound returns, and
// counts as progress, while its peer reads steadily. A failure leaves
// the socket's default, which only loosens that wake.
func setNotSentLowat(rc syscall.RawConn, lowat int) {
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpNotSentLowat, lowat)
	})
}

//nsgen:end
