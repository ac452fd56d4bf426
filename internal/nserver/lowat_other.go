//go:build !linux

package nserver

import "syscall"

//nsgen:if WriteBound

// setNotSentLowat leaves the socket's default off Linux.
func setNotSentLowat(syscall.RawConn, int) {}

//nsgen:end
