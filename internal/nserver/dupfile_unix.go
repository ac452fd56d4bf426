//go:build unix

package nserver

import (
	"os"
	"syscall"
)

// dupFile returns a descriptor of its own for f's open file, closed on
// exec, so it outlives the caller's close of f.
func dupFile(f *os.File) (*os.File, error) {
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		return nil, err
	}
	syscall.CloseOnExec(fd)
	return os.NewFile(uintptr(fd), f.Name()), nil
}
