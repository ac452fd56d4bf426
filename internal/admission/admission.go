// Package admission implements the O9 accept gate: a gradient/AIMD
// concurrency limiter layered over the paper's static watermark pair,
// which stays wired in as its backstop.
//
// The control law closes the loop the static gate leaves open. The O5/O11
// pipeline already samples how long events sit in the processor queues
// (the queue_wait stage histograms); the limiter consumes the same
// samples and keeps two exponentially weighted averages of them: a
// no-load *baseline* that tracks the minimum observed wait (it follows
// samples down quickly and creeps up only very slowly, so a sustained
// overload cannot inflate it) and a short-horizon *recent* estimate.
// While recent wait stays near baseline the concurrency limit grows
// additively toward MaxLimit; once recent exceeds
// baseline*Tolerance+Slack — the measured slope has turned — the limit is
// cut multiplicatively (AIMD), and the acceptor sheds connections above
// it instead of queueing them into an already-congested pipeline.
//
// Shedding is priority-aware: the limiter is also the acceptor's
// PriorityGate, consulted for each connection that would be shed while
// the hard connection bound still has room. A Classify hook maps the raw
// connection to an O8 priority level; levels below the current shed floor
// are re-admitted (high-priority traffic keeps flowing), lower levels are
// refused, and per-level counters prove the ordering. The static
// watermark gate stays wired in as a Backstop: when it pauses, nothing is
// admitted, so every guarantee of the watermark configuration still
// holds with the limiter layered on top.
//
// The limiter can never latch shut: the limit only gates *new* admissions
// against the in-flight count (draining connections reopen it), and a
// recovery clock raises the limit additively whenever no fresh samples
// arrive — total shed (no events, no samples) therefore heals itself.
package admission

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Gate is the read side of the static overload gate used as the hard
// backstop (satisfied by *eventproc.Overload).
type Gate interface {
	AcceptAllowed() bool
}

// The control law's constants. DESIGN §11 documents them, and nsgen
// emits the same values into an O9 framework's admission limiter.
const (
	// MinLimit is the floor multiplicative decreases stop at.
	MinLimit = 4
	// Tolerance is the multiplicative headroom over the no-load baseline
	// before the limiter treats a queue-wait sample stream as congestion
	// (shed when recent > baseline*Tolerance+Slack).
	Tolerance = 2.0
	// Slack absorbs scheduler jitter when the baseline is near zero.
	Slack = time.Millisecond
	// DecreaseInterval rate-limits multiplicative decreases so a burst of
	// congested samples cuts the limit once, not once per sample.
	DecreaseInterval = 100 * time.Millisecond
	// DecreaseFactor is the multiplicative decrease applied to the limit
	// on congestion.
	DecreaseFactor = 0.7
	// RecoveryInterval is the additive-raise clock for the no-sample
	// case: if no queue-wait sample arrives for this long, AcceptAllowed
	// raises the limit so shedding cannot latch.
	RecoveryInterval = 250 * time.Millisecond
)

// Config parameterizes a Limiter. The zero value of every field is
// replaced by a sensible default in New; only Inflight is genuinely
// required for the limit to bind.
type Config struct {
	// MaxLimit bounds the concurrency limit from above (default 1024;
	// never below MinLimit). The limit starts at MaxLimit, so an
	// uncongested server behaves exactly like the static configuration.
	MaxLimit int
	// Inflight reports the current active connection count the limit is
	// compared against (the server's ActiveConns). nil never limits.
	Inflight func() int
	// Backstop is the static watermark gate; while it refuses, the
	// limiter refuses too and re-admits nothing. nil means no backstop.
	Backstop Gate
	// Levels is the number of O8 priority levels for shed accounting
	// (>= 1; default 1). Level 0 is the highest priority.
	Levels int
	// Classify maps a not-yet-attached connection to its shed priority
	// level. nil marks every connection lowest-priority (all sheddable).
	Classify func(net.Conn) int

	// now is the test clock; nil means time.Now.
	now func() time.Time
}

// Snapshot is a point-in-time view of the limiter for /metrics and
// shutdown reports.
type Snapshot struct {
	// Limit is the current concurrency limit; Engaged reports whether it
	// sits below MaxLimit (the limiter is actively constraining).
	Limit   int  `json:"limit"`
	Engaged bool `json:"engaged"`
	// BaselineWait and RecentWait are the two queue-wait estimates the
	// control law compares.
	BaselineWait time.Duration `json:"baseline_wait_ns"`
	RecentWait   time.Duration `json:"recent_wait_ns"`
	// RetryAfter is the current backoff horizon handed to shed replies.
	RetryAfter time.Duration `json:"retry_after_ns"`
	// Observed counts queue-wait samples consumed.
	Observed uint64 `json:"observed_samples"`
	// Shed and Admitted count PriorityGate decisions per level (index =
	// priority level, 0 highest).
	Shed     []uint64 `json:"shed_by_level"`
	Admitted []uint64 `json:"admitted_by_level"`
}

// Limiter is the adaptive admission controller. It satisfies
// acceptor.Gate via AcceptAllowed and acceptor.PriorityGate via
// AdmitOverloaded; Observe is fed from the event processors' queue-wait
// sampling lattice.
type Limiter struct {
	cfg   Config
	limit atomic.Int64
	// engagedSince is the unix-nano timestamp of the moment the limit
	// first dropped below MaxLimit; 0 while at MaxLimit. It drives the
	// Retry-After backoff horizon.
	engagedSince atomic.Int64
	observed     atomic.Uint64

	mu           sync.Mutex // guards the EWMA state and AIMD transitions
	baseline     float64    // nanoseconds
	recent       float64    // nanoseconds
	samples      uint64
	lastSample   time.Time
	lastDecrease time.Time
	lastRecovery time.Time

	shedByLevel  []atomic.Uint64
	admitByLevel []atomic.Uint64
}

// New builds a Limiter, filling defaulted Config fields.
func New(cfg Config) *Limiter {
	if cfg.MaxLimit <= 0 {
		cfg.MaxLimit = 1024
	}
	if cfg.MaxLimit < MinLimit {
		cfg.MaxLimit = MinLimit
	}
	if cfg.Levels < 1 {
		cfg.Levels = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	l := &Limiter{
		cfg:          cfg,
		shedByLevel:  make([]atomic.Uint64, cfg.Levels),
		admitByLevel: make([]atomic.Uint64, cfg.Levels),
	}
	l.limit.Store(int64(cfg.MaxLimit))
	return l
}

// Observe feeds one sampled queue-wait measurement into the control law.
func (l *Limiter) Observe(wait time.Duration) {
	l.observed.Add(1)
	now := l.cfg.now()
	s := float64(wait)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastSample = now
	if l.samples == 0 {
		l.samples = 1
		l.baseline, l.recent = s, s
		return
	}
	l.samples++
	// recent: short-horizon EWMA; baseline: min-tracking EWMA (fast down,
	// nearly frozen up, so congestion cannot talk the baseline into
	// accepting itself).
	l.recent += 0.3 * (s - l.recent)
	if s < l.baseline {
		l.baseline += 0.2 * (s - l.baseline)
	} else {
		l.baseline += 0.002 * (s - l.baseline)
	}
	if l.recent > l.baseline*Tolerance+float64(Slack) {
		if now.Sub(l.lastDecrease) >= DecreaseInterval {
			l.lastDecrease = now
			cut := int64(float64(l.limit.Load()) * DecreaseFactor)
			l.setLimitLocked(cut, now)
		}
		return
	}
	l.setLimitLocked(l.limit.Load()+1, now)
}

// setLimitLocked clamps and stores a new limit and maintains the
// engaged-since stamp. Caller holds l.mu.
func (l *Limiter) setLimitLocked(v int64, now time.Time) {
	if v < MinLimit {
		v = MinLimit
	}
	if v >= int64(l.cfg.MaxLimit) {
		v = int64(l.cfg.MaxLimit)
		l.engagedSince.Store(0)
	} else if l.engagedSince.Load() == 0 {
		l.engagedSince.Store(now.UnixNano())
	}
	l.limit.Store(v)
}

// AcceptAllowed implements the acceptor gate: the backstop must allow,
// and the in-flight count must sit below the adaptive limit. It also
// runs the no-sample recovery clock, so a fully shed server (no events,
// hence no Observe calls) raises its own limit back up.
func (l *Limiter) AcceptAllowed() bool {
	if l.cfg.Backstop != nil && !l.cfg.Backstop.AcceptAllowed() {
		return false
	}
	l.maybeRecover()
	if l.cfg.Inflight == nil {
		return true
	}
	return int64(l.cfg.Inflight()) < l.limit.Load()
}

func (l *Limiter) maybeRecover() {
	now := l.cfg.now()
	l.mu.Lock()
	if now.Sub(l.lastSample) >= RecoveryInterval &&
		now.Sub(l.lastRecovery) >= RecoveryInterval {
		l.lastRecovery = now
		cur := l.limit.Load()
		step := cur / 8
		if step < 1 {
			step = 1
		}
		l.setLimitLocked(cur+step, now)
	}
	l.mu.Unlock()
}

// classify maps a connection to its shed level; without a Classify hook
// every connection is lowest priority (fully sheddable).
func (l *Limiter) classify(c net.Conn) int {
	if l.cfg.Classify == nil {
		return l.cfg.Levels - 1
	}
	lvl := l.cfg.Classify(c)
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= l.cfg.Levels {
		lvl = l.cfg.Levels - 1
	}
	return lvl
}

// shedFloor is the lowest level index still admitted: levels >= floor
// shed. It starts at Levels-1 (only the lowest level sheds) and tightens
// toward 1 as the in-flight overshoot grows; level 0 is never shed by
// the limiter itself.
func (l *Limiter) shedFloor() int {
	levels := l.cfg.Levels
	if levels <= 2 {
		return 1
	}
	limit := l.limit.Load()
	if l.cfg.Inflight == nil || limit <= 0 {
		return levels - 1
	}
	over := float64(l.cfg.Inflight())/float64(limit) - 1
	sev := over / 0.5 // full severity at 50% overshoot
	if sev < 0 {
		sev = 0
	}
	if sev > 1 {
		sev = 1
	}
	floor := levels - 1 - int(sev*float64(levels-2)+0.5)
	if floor < 1 {
		floor = 1
	}
	return floor
}

// AdmitOverloaded implements the acceptor's PriorityGate: it is consulted
// for a connection the gate would shed while the hard connection bound
// still has room. High-priority levels (below the shed floor) are
// re-admitted so they keep flowing through overload; everything else is
// refused. While the watermark backstop is paused nothing is admitted —
// the static gate's semantics win.
func (l *Limiter) AdmitOverloaded(c net.Conn) bool {
	lvl := l.classify(c)
	if l.cfg.Backstop != nil && !l.cfg.Backstop.AcceptAllowed() {
		l.shedByLevel[lvl].Add(1)
		return false
	}
	if l.cfg.Classify != nil && lvl < l.shedFloor() {
		l.admitByLevel[lvl].Add(1)
		return true
	}
	l.shedByLevel[lvl].Add(1)
	return false
}

// RetryAfter returns the backoff horizon shed replies should advertise:
// twice the time the limiter has been engaged, clamped to [1s, 60s]. A
// disengaged limiter (watermark-only shed) reports the 1s floor.
func (l *Limiter) RetryAfter() time.Duration {
	e := l.engagedSince.Load()
	if e == 0 {
		return time.Second
	}
	h := 2 * l.cfg.now().Sub(time.Unix(0, e))
	if h < time.Second {
		return time.Second
	}
	if h > time.Minute {
		return time.Minute
	}
	return h
}

// Limit returns the current concurrency limit.
func (l *Limiter) Limit() int { return int(l.limit.Load()) }

// Engaged reports whether the limit currently sits below MaxLimit.
func (l *Limiter) Engaged() bool { return l.engagedSince.Load() != 0 }

// Clear reports whether nothing is holding admission back: the limit
// sits at MaxLimit and the backstop allows. Unlike AcceptAllowed it
// neither meters the in-flight count nor runs the recovery clock, so a
// hot path may ask it per request.
func (l *Limiter) Clear() bool {
	return !l.Engaged() && (l.cfg.Backstop == nil || l.cfg.Backstop.AcceptAllowed())
}

// ShedCount returns the shed counter for one level (0 for out of range).
func (l *Limiter) ShedCount(level int) uint64 {
	if level < 0 || level >= len(l.shedByLevel) {
		return 0
	}
	return l.shedByLevel[level].Load()
}

// Snapshot returns the current limiter state. Safe on a nil receiver
// (returns the zero Snapshot), mirroring the profiling nil idiom.
func (l *Limiter) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	l.mu.Lock()
	base := time.Duration(l.baseline)
	recent := time.Duration(l.recent)
	l.mu.Unlock()
	s := Snapshot{
		Limit:        int(l.limit.Load()),
		Engaged:      l.engagedSince.Load() != 0,
		BaselineWait: base,
		RecentWait:   recent,
		RetryAfter:   l.RetryAfter(),
		Observed:     l.observed.Load(),
		Shed:         make([]uint64, len(l.shedByLevel)),
		Admitted:     make([]uint64, len(l.admitByLevel)),
	}
	for i := range l.shedByLevel {
		s.Shed[i] = l.shedByLevel[i].Load()
		s.Admitted[i] = l.admitByLevel[i].Load()
	}
	return s
}
