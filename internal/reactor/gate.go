package reactor

import "sync/atomic"

// DrainGate is the oneshot/re-arm CAS machine every connection drain
// shares. A wakeup that lands while a drain is already running must not
// be dropped (nothing will repeat it) and must not start a concurrent
// drain (the source is being consumed). The gate
// collapses both into three states:
//
//	armed    — no drain in flight; the next wakeup claims the gate
//	draining — a drain owns the source
//	rearm    — a wakeup landed mid-drain; the owner must go around
//
// Both directions of an internal/nserver connection claim one: the read
// gate serializes drains of the chunks its reader goroutine queued, the
// write gate the pump that finishes a parked outbound queue, so both
// halves share one lost-wakeup argument.
type DrainGate struct {
	state atomic.Int32
}

const (
	gateArmed int32 = iota
	gateDraining
	gateRearm
)

// Claim consumes one readiness wakeup. True means the caller now owns
// the drain and must run it to completion; false means a drain is
// already in flight and has been flagged to go around, so the wakeup is
// absorbed without blocking.
func (g *DrainGate) Claim() bool {
	for {
		switch g.state.Load() {
		case gateArmed:
			if g.state.CompareAndSwap(gateArmed, gateDraining) {
				return true
			}
		case gateDraining:
			if g.state.CompareAndSwap(gateDraining, gateRearm) {
				return false
			}
		default: // gateRearm: the pending pass already covers this wakeup.
			return false
		}
	}
}

// Release ends a drain pass. True means the gate is re-armed and the
// owner may return; false means a wakeup landed during the pass — the
// gate stays owned and the caller must drain again before releasing.
func (g *DrainGate) Release() bool {
	if g.state.CompareAndSwap(gateDraining, gateArmed) {
		return true
	}
	// A wakeup moved us to rearm mid-drain: absorb it and keep ownership.
	g.state.Store(gateDraining)
	return false
}
