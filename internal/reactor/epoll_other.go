//go:build !linux

package reactor

import (
	"errors"
	"syscall"
	"time"

	"repro/internal/events"
)

// PollerSupported reports whether this platform has a kernel readiness
// poller. Off Linux the answer is no: Options.EventDriven is accepted but
// the runtime keeps the portable goroutine-per-connection read path.
const PollerSupported = false

// ErrPollerUnsupported is returned by every poller operation on platforms
// without a kernel readiness poller.
var ErrPollerUnsupported = errors.New("reactor: kernel event poller unsupported on this platform")

// Poller is the non-Linux stub; NewPoller never returns one.
type Poller struct {
	// OnBatch mirrors the Linux field so wiring code compiles unchanged.
	OnBatch func(batch int, wait time.Duration)
}

// NewPoller reports the platform has no kernel readiness poller.
func NewPoller() (*Poller, error) { return nil, ErrPollerUnsupported }

// Add implements the Poller surface; always unsupported.
func (p *Poller) Add(fd int, h Handle, prio events.Priority) error { return ErrPollerUnsupported }

// Del implements the Poller surface; nothing is ever parked.
func (p *Poller) Del(fd int) bool { return false }

// Len implements the Poller surface; nothing is ever parked.
func (p *Poller) Len() int { return 0 }

// Run implements the Poller surface; returns immediately.
func (p *Poller) Run(emit func(h Handle, prio events.Priority, writable bool)) {}

// ArmWrite implements the Poller surface; always unsupported.
func (p *Poller) ArmWrite(fd int) error { return ErrPollerUnsupported }

// DisarmWrite implements the Poller surface; always unsupported.
func (p *Poller) DisarmWrite(fd int) error { return ErrPollerUnsupported }

// Close implements the Poller surface.
func (p *Poller) Close() {}

// ConnFD is unavailable without a poller to hand the descriptor to.
func ConnFD(sc syscall.Conn) (int, syscall.RawConn, error) {
	return 0, nil, ErrPollerUnsupported
}

// NonblockRead is unavailable without the poller path.
func NonblockRead(rc syscall.RawConn, buf []byte) (n int, again bool, err error) {
	return 0, false, ErrPollerUnsupported
}

// NonblockWritev is unavailable without the poller path.
func NonblockWritev(rc syscall.RawConn, segs [][]byte) (n int, again bool, err error) {
	return 0, false, ErrPollerUnsupported
}
