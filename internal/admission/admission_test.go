package admission

import (
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock so the AIMD transitions are
// deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestLimiter(t *testing.T, cfg Config) (*Limiter, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg.now = clk.now
	return New(cfg), clk
}

type fakeConn struct {
	net.Conn
	tag int
}

// congest establishes a 1ms no-load baseline, then feeds congested
// samples until the limit is pinned at MinLimit. (A limiter that boots
// straight into overload adopts the congested wait as its baseline — the
// watermark backstop covers that cold-start case; the slope detector
// needs to have seen no-load traffic first, as a live server has.)
func congest(t *testing.T, l *Limiter, clk *fakeClock) {
	t.Helper()
	for i := 0; i < 50; i++ {
		l.Observe(time.Millisecond)
		clk.advance(10 * time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		l.Observe(100 * time.Millisecond)
		clk.advance(200 * time.Millisecond)
	}
	// Park the recovery clock so it cannot fire mid-assertion.
	l.Observe(100 * time.Millisecond)
	if got := l.Limit(); got != MinLimit {
		t.Fatalf("limit %d after congestion, want MinLimit %d", got, MinLimit)
	}
}

func TestLimiterStartsWideOpen(t *testing.T) {
	inflight := 0
	l, _ := newTestLimiter(t, Config{MaxLimit: 64, Inflight: func() int { return inflight }})
	if got := l.Limit(); got != 64 {
		t.Fatalf("initial limit %d, want MaxLimit 64", got)
	}
	if !l.AcceptAllowed() {
		t.Error("uncongested limiter refused admission")
	}
	if l.Engaged() {
		t.Error("limiter engaged before any congestion")
	}
}

// TestLimiterAIMD drives the control law directly: low waits grow the
// limit additively, a congested wait stream cuts it multiplicatively,
// and returning to baseline waits recovers it.
func TestLimiterAIMD(t *testing.T) {
	l, clk := newTestLimiter(t, Config{MaxLimit: 100, Inflight: func() int { return 0 }})

	// Establish the no-load baseline around 1ms.
	for i := 0; i < 50; i++ {
		l.Observe(time.Millisecond)
		clk.advance(10 * time.Millisecond)
	}
	if l.Limit() != 100 {
		t.Fatalf("limit %d after baseline traffic, want 100", l.Limit())
	}

	// Congestion: waits 50x baseline. Each DecreaseInterval the limit is
	// cut by the decrease factor until MinLimit.
	for i := 0; i < 60; i++ {
		l.Observe(50 * time.Millisecond)
		clk.advance(20 * time.Millisecond)
	}
	if got := l.Limit(); got >= 100 {
		t.Fatalf("limit %d did not decrease under congestion", got)
	}
	if !l.Engaged() || l.Clear() {
		t.Error("limiter not engaged under sustained congestion")
	}
	congested := l.Limit()

	// Recovery: waits back at baseline raise the limit additively.
	for i := 0; i < 200; i++ {
		l.Observe(time.Millisecond)
		clk.advance(5 * time.Millisecond)
	}
	if got := l.Limit(); got <= congested {
		t.Fatalf("limit %d did not recover (was %d)", got, congested)
	}
	if l.Limit() != 100 {
		t.Fatalf("limit %d after full recovery, want 100", l.Limit())
	}
	if l.Engaged() {
		t.Error("limiter still engaged after recovery to MaxLimit")
	}
}

// TestLimiterBoundsAdmissionByInflight: the gate refuses exactly when
// in-flight connections reach the limit.
func TestLimiterBoundsAdmissionByInflight(t *testing.T) {
	inflight := 0
	l, clk := newTestLimiter(t, Config{MaxLimit: 10, Inflight: func() int { return inflight }})
	congest(t, l, clk)
	inflight = 3
	if !l.AcceptAllowed() {
		t.Error("refused below the limit")
	}
	inflight = 4
	if l.AcceptAllowed() {
		t.Error("admitted at the limit")
	}
}

// TestLimiterRecoversWithoutSamples: a fully shed server produces no
// queue-wait samples; the recovery clock alone must reopen admission.
func TestLimiterRecoversWithoutSamples(t *testing.T) {
	inflight := 0
	l, clk := newTestLimiter(t, Config{MaxLimit: 200, Inflight: func() int { return inflight }})
	congest(t, l, clk)
	inflight = 100
	if l.AcceptAllowed() {
		t.Fatal("not shedding at 100 in-flight with limit pinned low")
	}
	// No more samples. Each RecoveryInterval poll must raise the limit.
	for i := 0; i < 200 && !l.AcceptAllowed(); i++ {
		clk.advance(300 * time.Millisecond)
	}
	if !l.AcceptAllowed() {
		t.Fatalf("limit %d never recovered past %d in-flight without samples", l.Limit(), inflight)
	}
}

// TestPriorityAwareShedding: level 0 is re-admitted while lower levels
// shed, with per-level counters proving the ordering.
func TestPriorityAwareShedding(t *testing.T) {
	l, _ := newTestLimiter(t, Config{
		Levels:   2,
		Classify: func(c net.Conn) int { return c.(*fakeConn).tag },
	})
	high := &fakeConn{tag: 0}
	low := &fakeConn{tag: 1}
	for i := 0; i < 5; i++ {
		if !l.AdmitOverloaded(high) {
			t.Fatal("high-priority connection shed")
		}
		if l.AdmitOverloaded(low) {
			t.Fatal("low-priority connection admitted during overload")
		}
	}
	s := l.Snapshot()
	if s.Admitted[0] != 5 || s.Shed[0] != 0 {
		t.Errorf("level 0: admitted=%d shed=%d, want 5/0", s.Admitted[0], s.Shed[0])
	}
	if s.Shed[1] != 5 || s.Admitted[1] != 0 {
		t.Errorf("level 1: admitted=%d shed=%d, want 0/5", s.Admitted[1], s.Shed[1])
	}
}

// TestBackstopWins: while the static watermark gate is paused, nothing is
// admitted — not even level 0 — so the watermark configuration's
// guarantees survive the limiter being layered on top.
func TestBackstopWins(t *testing.T) {
	paused := true
	l, _ := newTestLimiter(t, Config{
		Levels:   2,
		Backstop: gateFunc(func() bool { return !paused }),
		Classify: func(net.Conn) int { return 0 },
	})
	if l.AcceptAllowed() || l.Clear() {
		t.Error("gate open while backstop paused")
	}
	if l.AdmitOverloaded(&fakeConn{tag: 0}) {
		t.Error("level 0 re-admitted past a paused backstop")
	}
	if got := l.ShedCount(0); got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}
	paused = false
	if !l.AcceptAllowed() || !l.Clear() {
		t.Error("gate shut with backstop open and no congestion")
	}
}

type gateFunc func() bool

func (f gateFunc) AcceptAllowed() bool { return f() }

// TestUnclassifiedConnectionsFullyShed: without a Classify hook every
// connection is lowest-priority and sheds.
func TestUnclassifiedConnectionsFullyShed(t *testing.T) {
	l, _ := newTestLimiter(t, Config{Levels: 2})
	if l.AdmitOverloaded(&fakeConn{}) {
		t.Error("unclassified connection re-admitted")
	}
	if got := l.ShedCount(1); got != 1 {
		t.Errorf("shed counted at level %d=%d, want lowest level", 1, got)
	}
}

// TestShedFloorTightensWithOvershoot: with >2 levels, mild overload sheds
// only the lowest level; deep overload sheds everything but level 0.
func TestShedFloorTightensWithOvershoot(t *testing.T) {
	inflight := 0
	l, clk := newTestLimiter(t, Config{
		MaxLimit: 20,
		Levels:   4,
		Inflight: func() int { return inflight },
		Classify: func(c net.Conn) int { return c.(*fakeConn).tag },
	})
	congest(t, l, clk)
	inflight = MinLimit // no overshoot: only the lowest level sheds
	if !l.AdmitOverloaded(&fakeConn{tag: 2}) {
		t.Error("mid level shed at zero overshoot")
	}
	if l.AdmitOverloaded(&fakeConn{tag: 3}) {
		t.Error("lowest level admitted during overload")
	}
	inflight = 2 * MinLimit // 100% overshoot: only level 0 still flows
	if !l.AdmitOverloaded(&fakeConn{tag: 0}) {
		t.Error("level 0 shed")
	}
	if l.AdmitOverloaded(&fakeConn{tag: 1}) {
		t.Error("level 1 admitted at full severity")
	}
}

// TestRetryAfterGrowsWithOverloadDuration: the backoff horizon starts at
// the 1s floor and doubles with time spent engaged, clamped at 60s.
func TestRetryAfterGrowsWithOverloadDuration(t *testing.T) {
	l, clk := newTestLimiter(t, Config{MaxLimit: 100})
	if got := l.RetryAfter(); got != time.Second {
		t.Fatalf("disengaged RetryAfter %v, want 1s", got)
	}
	congest(t, l, clk)
	if !l.Engaged() {
		t.Fatal("not engaged")
	}
	early := l.RetryAfter()
	clk.advance(10 * time.Second)
	later := l.RetryAfter()
	if later <= early {
		t.Errorf("RetryAfter did not grow: %v then %v", early, later)
	}
	clk.advance(10 * time.Minute)
	if got := l.RetryAfter(); got != time.Minute {
		t.Errorf("RetryAfter %v past the clamp, want 60s", got)
	}
}

// TestSnapshotCountersMonotonicUnderConcurrency hammers the limiter from
// many goroutines (observations, admissions, snapshots) — run under
// -race this is the data-safety check; the counters must end exactly
// consistent with the calls made.
func TestSnapshotCountersMonotonicUnderConcurrency(t *testing.T) {
	inflight := 50
	l, _ := newTestLimiter(t, Config{
		Levels:   2,
		MaxLimit: 64,
		Inflight: func() int { return inflight },
		Classify: func(c net.Conn) int { return c.(*fakeConn).tag },
	})
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &fakeConn{tag: w % 2}
			for i := 0; i < perWorker; i++ {
				l.Observe(time.Duration(i%5) * time.Millisecond)
				l.AdmitOverloaded(c)
				l.AcceptAllowed()
				if i%50 == 0 {
					l.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := l.Snapshot()
	if s.Observed != 8*perWorker {
		t.Errorf("observed %d samples, want %d", s.Observed, 8*perWorker)
	}
	if got := s.Admitted[0] + s.Shed[0]; got != 4*perWorker {
		t.Errorf("level 0 decisions %d, want %d", got, 4*perWorker)
	}
	if got := s.Admitted[1] + s.Shed[1]; got != 4*perWorker {
		t.Errorf("level 1 decisions %d, want %d", got, 4*perWorker)
	}
	if s.Admitted[1] != 0 {
		t.Errorf("level 1 admitted %d times during overload", s.Admitted[1])
	}
}
