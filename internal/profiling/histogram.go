package profiling

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// This file grows option O11 from coarse totals into per-stage latency
// visibility: a lock-free fixed-bucket histogram records the duration of
// each Fig. 1 pipeline step (Read Request, Decode Request, Handle Request,
// Encode Reply, Send Reply) plus the two internal latencies the template
// options introduce — event-queue wait time (the O5 worker-allocation
// quantity) and emulated-AIO completion latency (the O4 quantity).

// Stage identifies one instrumented duration of the serve pipeline.
type Stage int

// The instrumented stages. The first five are the Fig. 1 pipeline steps;
// StageQueueWait is the time an event spends queued before a worker pops
// it (O5), and StageAIOComplete is submission-to-completion latency of an
// emulated asynchronous file operation (O4).
const (
	StageRead Stage = iota
	StageDecode
	StageHandle
	StageEncode
	StageSend
	StageQueueWait
	StageAIOComplete
	NumStages
)

// stageNames holds each stage's metric label.
var stageNames = [NumStages]string{"read", "decode", "handle", "encode", "send", "queue_wait", "aio_complete"}

// String returns the stage's metric label.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// NumBuckets is the fixed bucket count of every Histogram. Buckets are
// exponential: bucket i covers durations up to 64ns << i (inclusive), so
// the range spans 64ns to ~4.3s in factor-of-two steps; the final bucket
// is the +Inf overflow.
const NumBuckets = 28

// BucketBound returns the inclusive upper bound of bucket i; the last
// bucket is unbounded and reports math.MaxInt64.
func BucketBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(64) << uint(i)
}

// bucketIndex maps a duration in nanoseconds to its bucket.
func bucketIndex(n int64) int {
	if n <= 64 {
		return 0
	}
	idx := bits.Len64(uint64(n-1) >> 6)
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// Histogram is a lock-free fixed-bucket latency histogram. Observe is one
// atomic add per field touched — no locks, no allocation — so it is safe
// on the hot path from any number of goroutines. A nil *Histogram is a
// valid no-op sink, mirroring the Profile nil-receiver idiom.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // total nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.buckets[bucketIndex(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(n))
}

// HistogramSnapshot is a point-in-time copy of a histogram. The copy is
// taken counter by counter without a global lock, so concurrent Observe
// calls may make Count lag or lead the bucket total by the handful of
// observations in flight during the read; every counter is individually
// monotonic.
type HistogramSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets [NumBuckets]uint64
}

// Snapshot copies the counters; the zero snapshot for nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket containing the q*Count-th observation — the standard
// fixed-bucket estimate, biased at most one bucket width (a factor of
// two) upward. Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := uint64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// ObserveStage records one duration against a pipeline stage.
func (p *Profile) ObserveStage(st Stage, d time.Duration) {
	if p == nil || st < 0 || st >= NumStages {
		return
	}
	p.stages[st].Observe(d)
}

// StageSampleEvery is the deterministic sampling rate of StageStart: one
// in this many calls takes a real timestamp. On this class of hardware a
// clock read costs tens of nanoseconds — two per stage per request would
// tax the zero-copy hot path far more than the 5% observability budget —
// while the histograms only need a statistical population, not every
// request. Unsampled calls cost one atomic add.
const StageSampleEvery = 16

// StageStart samples the clock for a stage measurement, or returns the
// zero time when profiling is off or this call falls off the 1-in-
// StageSampleEvery lattice — ObserveSince treats the zero time as "do
// not observe", so call sites need no sampling logic of their own. Pair
// with ObserveSince.
func (p *Profile) StageStart() time.Time {
	if p == nil {
		return time.Time{}
	}
	if p.stageSeen.Add(1)%StageSampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the elapsed time since a StageStart sample; it is
// a no-op for a nil profile or a zero start (profiling off at sample
// time).
func (p *Profile) ObserveSince(st Stage, start time.Time) {
	if p == nil || start.IsZero() {
		return
	}
	p.ObserveStage(st, time.Since(start))
}

// StageHistogram exposes the underlying histogram for one stage (nil for
// a nil profile), letting callers Observe directly when they manage their
// own clocks.
func (p *Profile) StageHistogram(st Stage) *Histogram {
	if p == nil || st < 0 || st >= NumStages {
		return nil
	}
	return &p.stages[st]
}
