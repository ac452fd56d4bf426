package profiling

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{0, 0},
		{1, 0},
		{64, 0},
		{65, 1},
		{128, 1},
		{129, 2},
		{int64(64) << 26, NumBuckets - 2},
		{int64(64)<<26 + 1, NumBuckets - 1},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.n); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Every bucket's inclusive upper bound must map into that bucket.
	for i := 0; i < NumBuckets-1; i++ {
		if got := bucketIndex(int64(BucketBound(i))); got != i {
			t.Errorf("bucketIndex(BucketBound(%d)) = %d, want %d", i, got, i)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(50 * time.Nanosecond)  // bucket 0
	h.Observe(100 * time.Nanosecond) // bucket 1
	h.Observe(-time.Second)          // clamps to 0, bucket 0
	h.Observe(time.Hour)             // overflow bucket

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if want := time.Duration(50 + 100 + 0 + int64(time.Hour)); s.Sum != want {
		t.Fatalf("Sum = %v, want %v", s.Sum, want)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("bucket spread wrong: %v", s.Buckets)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 90 fast observations, 10 slow: p50 lands in the fast bucket, p99 in
	// the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	p99 := s.Quantile(0.99)
	if p50 > 256*time.Nanosecond {
		t.Errorf("p50 = %v, want <= 256ns", p50)
	}
	if p99 < time.Millisecond || p99 > 4*time.Millisecond {
		t.Errorf("p99 = %v, want ~1-4ms bucket bound", p99)
	}
	if got := s.Quantile(1.0); got < p99 {
		t.Errorf("p100 %v < p99 %v", got, p99)
	}
	if mean := s.Mean(); mean <= 0 {
		t.Errorf("mean = %v, want > 0", mean)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*100+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestProfileStageMethods(t *testing.T) {
	var nilp *Profile
	if !nilp.StageStart().IsZero() {
		t.Fatal("nil StageStart should be zero time")
	}
	nilp.ObserveStage(StageRead, time.Second) // no-op
	nilp.ObserveSince(StageRead, time.Now())  // no-op
	if nilp.StageHistogram(StageSend) != nil {
		t.Fatal("nil profile should expose nil histograms")
	}

	// A live profile samples StageStart deterministically: exactly one
	// real timestamp per StageSampleEvery calls, zero time otherwise.
	p := New()
	var start time.Time
	sampled := 0
	for i := 0; i < StageSampleEvery; i++ {
		if s := p.StageStart(); !s.IsZero() {
			sampled++
			start = s
		}
	}
	if sampled != 1 {
		t.Fatalf("StageStart sampled %d of %d calls, want exactly 1", sampled, StageSampleEvery)
	}
	p.ObserveSince(StageDecode, start)
	p.ObserveStage(StageDecode, time.Millisecond)
	p.ObserveSince(StageDecode, time.Time{}) // zero start: profiling was off at sample time
	if got := p.StageHistogram(StageDecode).Snapshot().Count; got != 2 {
		t.Fatalf("StageDecode count = %d, want 2", got)
	}
	p.ObserveStage(Stage(-1), time.Second)  // out of range: ignored
	p.ObserveStage(NumStages, time.Second)  // out of range: ignored
	if p.StageHistogram(NumStages) != nil { // out of range: nil
		t.Fatal("out-of-range StageHistogram should be nil")
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageRead:        "read",
		StageDecode:      "decode",
		StageHandle:      "handle",
		StageEncode:      "encode",
		StageSend:        "send",
		StageQueueWait:   "queue_wait",
		StageAIOComplete: "aio_complete",
	}
	if len(want) != int(NumStages) {
		t.Fatalf("stage enumeration out of sync")
	}
	if got := NumStages.String(); got != "stage(7)" {
		t.Errorf("out-of-range stage label = %q", got)
	}
	seen := map[string]bool{}
	for st := Stage(0); st < NumStages; st++ {
		s := st.String()
		if s != want[st] {
			t.Errorf("Stage(%d).String() = %q, want %q", st, s, want[st])
		}
		if seen[s] {
			t.Errorf("duplicate stage label %q", s)
		}
		seen[s] = true
	}
}
