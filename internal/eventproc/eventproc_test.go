package eventproc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/options"
	"repro/internal/profiling"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := New(Config{Workers: 2, Allocation: options.DynamicAllocation}); err == nil {
		t.Error("dynamic without bounds accepted")
	}
	if _, err := New(Config{Workers: 2, Allocation: options.DynamicAllocation,
		MinWorkers: 4, MaxWorkers: 2}); err == nil {
		t.Error("min>max accepted")
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	p, err := New(Config{Name: "t", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(events.Func(func() {})); !errors.Is(err, ErrNotStarted) {
		t.Errorf("Submit before start = %v", err)
	}
}

func TestProcessesAllEvents(t *testing.T) {
	p, err := New(Config{Name: "t", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Start() // idempotent
	var n atomic.Int64
	const total = 1000
	for i := 0; i < total; i++ {
		if err := p.Submit(events.Func(func() { n.Add(1) })); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop()
	p.Stop() // idempotent
	if n.Load() != total {
		t.Errorf("processed %d of %d", n.Load(), total)
	}
	if err := p.Submit(events.Func(func() {})); err == nil {
		t.Error("Submit after Stop succeeded")
	}
}

func TestStaticPoolSizeIsStable(t *testing.T) {
	p, err := New(Config{Name: "t", Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	time.Sleep(20 * time.Millisecond)
	if got := p.Workers(); got != 3 {
		t.Errorf("Workers = %d, want 3", got)
	}
	if p.Name() != "t" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestPanicInEventDoesNotKillWorker(t *testing.T) {
	tr := logging.NewTrace(nil, 16)
	p, err := New(Config{Name: "t", Workers: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	done := make(chan struct{})
	_ = p.Submit(events.Func(func() { panic("boom") }))
	_ = p.Submit(events.Func(func() { close(done) }))
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker died after panic")
	}
	p.Stop()
	var traced bool
	for _, r := range tr.Snapshot() {
		if r.Component == "t" && r.Event == "event panic: boom" {
			traced = true
		}
	}
	if !traced {
		t.Error("panic not traced")
	}
}

func TestDynamicPoolGrowsUnderBacklog(t *testing.T) {
	p, err := New(Config{
		Name: "t", Workers: 1,
		Allocation: options.DynamicAllocation,
		MinWorkers: 1, MaxWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	// Saturate the single worker with slow events so backlog builds.
	release := make(chan struct{})
	var running sync.WaitGroup
	for i := 0; i < 32; i++ {
		running.Add(1)
		_ = p.Submit(events.Func(func() { running.Done(); <-release }))
	}
	deadline := time.After(3 * time.Second)
	for p.Workers() < 4 {
		select {
		case <-deadline:
			close(release)
			t.Fatalf("pool never grew: %d workers", p.Workers())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
}

func TestDynamicPoolShrinksWhenIdle(t *testing.T) {
	p, err := New(Config{
		Name: "t", Workers: 6,
		Allocation: options.DynamicAllocation,
		MinWorkers: 2, MaxWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	deadline := time.After(3 * time.Second)
	for p.Workers() > 2 {
		select {
		case <-deadline:
			t.Fatalf("pool never shrank: %d workers", p.Workers())
		case <-time.After(time.Millisecond):
		}
	}
	// Must not shrink below the minimum.
	time.Sleep(50 * time.Millisecond)
	if got := p.Workers(); got < 2 {
		t.Errorf("pool below minimum: %d", got)
	}
}

func TestDynamicWorkersClampedToBounds(t *testing.T) {
	p, err := New(Config{
		Name: "t", Workers: 100,
		Allocation: options.DynamicAllocation,
		MinWorkers: 1, MaxWorkers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	if got := p.Workers(); got != 3 {
		t.Errorf("initial workers = %d, want clamp to 3", got)
	}
}

func TestProfileCountsDispatchAndProcess(t *testing.T) {
	prof := profiling.New()
	p, err := New(Config{Name: "t", Workers: 2, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i := 0; i < 50; i++ {
		_ = p.Submit(events.Func(func() {}))
	}
	p.Stop()
	s := prof.Snapshot()
	if s.EventsDispatched != 50 || s.EventsProcessed != 50 {
		t.Errorf("dispatched=%d processed=%d", s.EventsDispatched, s.EventsProcessed)
	}
}

func TestPriorityQueueIntegration(t *testing.T) {
	q, err := events.NewPriorityQueue([]int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Name: "t", Workers: 1, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []events.Priority
	// Fill the queue before starting so the single worker drains it under
	// the quota discipline.
	for i := 0; i < 10; i++ {
		prio := events.Priority(i % 2)
		_ = q.Push(events.PFunc{P: prio, F: func() {
			mu.Lock()
			order = append(order, prio)
			mu.Unlock()
		}})
	}
	p.Start()
	p.Stop()
	if len(order) != 10 {
		t.Fatalf("processed %d events", len(order))
	}
	// First cycle: 4 high, then 1 low.
	highs := 0
	for _, pr := range order[:4] {
		if pr == 0 {
			highs++
		}
	}
	if highs != 4 || order[4] != 1 {
		t.Errorf("quota cycle not respected: %v", order)
	}
}

type fakeQueueLen struct{ n atomic.Int64 }

func (f *fakeQueueLen) QueueLen() int { return int(f.n.Load()) }

func TestOverloadWatchValidation(t *testing.T) {
	o := NewOverload(nil)
	if err := o.Watch("q", nil, 10, 5); err == nil {
		t.Error("nil queue accepted")
	}
	if err := o.Watch("q", &fakeQueueLen{}, 5, 5); err == nil {
		t.Error("high == low accepted")
	}
	if err := o.Watch("q", &fakeQueueLen{}, 5, 0); err == nil {
		t.Error("zero low accepted")
	}
}

func TestOverloadHysteresis(t *testing.T) {
	// The paper's third experiment: high watermark 20, low watermark 5.
	q := &fakeQueueLen{}
	o := NewOverload(logging.NewTrace(nil, 16))
	if err := o.Watch("reactive", q, 20, 5); err != nil {
		t.Fatal(err)
	}
	if !o.AcceptAllowed() {
		t.Error("idle server should accept")
	}
	q.n.Store(19)
	if !o.AcceptAllowed() {
		t.Error("below high watermark should accept")
	}
	q.n.Store(20)
	if o.AcceptAllowed() {
		t.Error("at high watermark should pause")
	}
	if !o.Paused() {
		t.Error("controller should be paused")
	}
	// Dropping below high is not enough: hysteresis holds until low.
	q.n.Store(10)
	if o.AcceptAllowed() {
		t.Error("accepting resumed above low watermark")
	}
	q.n.Store(5)
	if !o.AcceptAllowed() {
		t.Error("at low watermark should resume")
	}
	if o.Paused() {
		t.Error("controller should have resumed")
	}
}

func TestOverloadMultipleQueues(t *testing.T) {
	cpu, disk := &fakeQueueLen{}, &fakeQueueLen{}
	o := NewOverload(nil)
	_ = o.Watch("cpu", cpu, 20, 5)
	_ = o.Watch("disk", disk, 10, 2)
	disk.n.Store(10) // disk bottleneck alone must pause accepts
	if o.AcceptAllowed() {
		t.Error("disk bottleneck ignored")
	}
	disk.n.Store(2)
	cpu.n.Store(6) // cpu above its low: still paused
	if o.AcceptAllowed() {
		t.Error("resume requires every queue at/below its low watermark")
	}
	cpu.n.Store(5)
	if !o.AcceptAllowed() {
		t.Error("all queues drained; should resume")
	}
}

func TestOverloadNoQueuesAlwaysAccepts(t *testing.T) {
	o := NewOverload(nil)
	for i := 0; i < 3; i++ {
		if !o.AcceptAllowed() {
			t.Fatal("controller with no queues should always accept")
		}
	}
}

func TestProcessorQueueLenVisibleToOverload(t *testing.T) {
	p, err := New(Config{Name: "t", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Don't start: events stay queued.
	o := NewOverload(nil)
	_ = o.Watch("p", p, 3, 1)
	p.Start()
	block := make(chan struct{})
	_ = p.Submit(events.Func(func() { <-block }))
	for i := 0; i < 5; i++ {
		_ = p.Submit(events.Func(func() {}))
	}
	// Wait for the worker to be busy and the queue to hold the backlog.
	deadline := time.After(2 * time.Second)
	for p.QueueLen() < 3 {
		select {
		case <-deadline:
			t.Fatal("backlog never built")
		case <-time.After(time.Millisecond):
		}
	}
	if o.AcceptAllowed() {
		t.Error("backlogged processor should pause accepting")
	}
	close(block)
	p.Stop()
}

func BenchmarkProcessorThroughput(b *testing.B) {
	p, _ := New(Config{Name: "bench", Workers: 4})
	p.Start()
	defer p.Stop()
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		_ = p.Submit(events.Func(func() { wg.Done() }))
	}
	wg.Wait()
}
