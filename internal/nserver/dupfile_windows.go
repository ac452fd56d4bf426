package nserver

import (
	"os"
	"syscall"
)

// dupFile returns a handle of its own for f's open file, not inherited
// by child processes, so it outlives the caller's close of f.
func dupFile(f *os.File) (*os.File, error) {
	self, err := syscall.GetCurrentProcess()
	if err != nil {
		return nil, err
	}
	var h syscall.Handle
	if err := syscall.DuplicateHandle(self, syscall.Handle(f.Fd()), self, &h,
		0, false, syscall.DUPLICATE_SAME_ACCESS); err != nil {
		return nil, err
	}
	return os.NewFile(uintptr(h), f.Name()), nil
}
