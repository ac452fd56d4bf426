package reactor

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDrainGateClaimRelease(t *testing.T) {
	var g DrainGate

	// First wakeup claims; a second during the drain is absorbed but
	// forces another pass at Release.
	if !g.Claim() {
		t.Fatal("first Claim should own the gate")
	}
	if g.Claim() {
		t.Fatal("second Claim during a drain should be absorbed")
	}
	if g.Release() {
		t.Fatal("Release should demand another pass after a mid-drain wakeup")
	}
	if g.Release() {
		// Still owned: no wakeup landed this pass, so the gate re-arms.
	} else {
		t.Fatal("Release with no pending wakeup should re-arm")
	}
	// Re-armed: the next wakeup claims again.
	if !g.Claim() {
		t.Fatal("Claim after re-arm should own the gate")
	}
}

// TestDrainGateNoLostWakeup hammers the gate from concurrent wakers and
// checks the core invariant: after the last wakeup is delivered, a drain
// pass runs (no wakeup is ever silently dropped), and two drains never
// run concurrently.
func TestDrainGateNoLostWakeup(t *testing.T) {
	var g DrainGate
	var draining atomic.Int32
	var drains atomic.Int32
	var wg sync.WaitGroup

	drain := func() {
		for {
			if draining.Add(1) != 1 {
				t.Error("concurrent drains")
			}
			drains.Add(1)
			draining.Add(-1)
			if g.Release() {
				return
			}
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if g.Claim() {
					drain()
				}
			}
		}()
	}
	wg.Wait()
	if drains.Load() == 0 {
		t.Fatal("no drain ever ran")
	}
	// All wakeups consumed: the gate must be re-armed for the next one.
	if !g.Claim() {
		t.Fatal("gate not re-armed after quiescence")
	}
}
