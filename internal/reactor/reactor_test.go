package reactor

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/eventproc"
	"repro/internal/logging"
	"repro/internal/profiling"
)

func TestEventTypeStrings(t *testing.T) {
	for et, want := range map[EventType]string{
		AcceptReady: "accept", ReadReady: "read",
		TimerReady: "timer", CompletionReady: "completion",
		UserReady: "user", CloseReady: "close",
	} {
		if et.String() != want {
			t.Errorf("%d.String() = %q, want %q", et, et.String(), want)
		}
	}
	if !strings.Contains(EventType(99).String(), "99") {
		t.Error("unknown event type string")
	}
	r := Ready{Type: ReadReady, Handle: 7}
	if !strings.Contains(r.String(), "read") || !strings.Contains(r.String(), "7") {
		t.Errorf("Ready.String() = %q", r.String())
	}
}

func TestBasicSourceOrderAndClose(t *testing.T) {
	s := NewBasicSource("test")
	if s.Name() != "test" {
		t.Errorf("Name = %q", s.Name())
	}
	for i := 0; i < 200; i++ {
		if err := s.Emit(Ready{Handle: Handle(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 200 {
		t.Errorf("Pending = %d", s.Pending())
	}
	for i := 0; i < 200; i++ {
		r, ok := s.Next()
		if !ok || r.Handle != Handle(i) {
			t.Fatalf("event %d: got %v ok=%v", i, r, ok)
		}
	}
	s.Close()
	if err := s.Emit(Ready{}); err != ErrSourceClosed {
		t.Errorf("Emit after close = %v", err)
	}
	if _, ok := s.Next(); ok {
		t.Error("Next on drained closed source returned event")
	}
}

func TestBasicSourceBlockingNext(t *testing.T) {
	s := NewBasicSource("test")
	got := make(chan Ready, 1)
	go func() {
		r, _ := s.Next()
		got <- r
	}()
	time.Sleep(5 * time.Millisecond)
	_ = s.Emit(Ready{Handle: 42})
	select {
	case r := <-got:
		if r.Handle != 42 {
			t.Errorf("got %v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Next never woke")
	}
}

func TestTraceSourceRecords(t *testing.T) {
	tr := logging.NewTrace(nil, 16)
	s := NewTraceSource(NewBasicSource("net"), tr)
	_ = s.Emit(Ready{Type: AcceptReady, Handle: 1})
	if tr.Len() != 1 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	if rec := tr.Snapshot()[0]; rec.Component != "net" || !strings.Contains(rec.Event, "accept") {
		t.Errorf("trace record = %+v", rec)
	}
	// Decorated source still delivers.
	if r, ok := s.Next(); !ok || r.Handle != 1 {
		t.Errorf("decorated Next = %v %v", r, ok)
	}
}

func TestTimerSourceFires(t *testing.T) {
	s := NewTimerSource(NewBasicSource("timers"))
	id := s.After(time.Millisecond, "payload")
	if id == 0 {
		t.Fatal("timer not scheduled")
	}
	r, ok := s.Next()
	if !ok || r.Type != TimerReady || r.Handle != id || r.Data.(string) != "payload" {
		t.Errorf("timer event = %+v ok=%v", r, ok)
	}
}

func TestTimerSourceCancel(t *testing.T) {
	s := NewTimerSource(NewBasicSource("timers"))
	id := s.After(50*time.Millisecond, nil)
	if !s.Cancel(id) {
		t.Error("Cancel returned false for pending timer")
	}
	if s.Cancel(id) {
		t.Error("double Cancel returned true")
	}
	time.Sleep(80 * time.Millisecond)
	if s.Pending() != 0 {
		t.Error("cancelled timer fired")
	}
}

func TestTimerSourceCloseCancelsAll(t *testing.T) {
	s := NewTimerSource(NewBasicSource("timers"))
	for i := 0; i < 5; i++ {
		s.After(30*time.Millisecond, i)
	}
	s.Close()
	if id := s.After(time.Millisecond, nil); id != 0 {
		t.Error("After on closed timer source scheduled")
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := s.Next(); ok {
		t.Error("event after Close")
	}
}

func TestReactorValidatesThreads(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 5} {
		if _, err := New(Config{DispatcherThreads: bad}); err == nil {
			t.Errorf("DispatcherThreads=%d accepted", bad)
		}
	}
	for _, good := range []int{1, 2, 4, 8} {
		if _, err := New(Config{DispatcherThreads: good}); err != nil {
			t.Errorf("DispatcherThreads=%d rejected: %v", good, err)
		}
	}
}

func TestInlineDispatchToHandleHandler(t *testing.T) {
	r, err := New(Config{DispatcherThreads: 1, Profile: profiling.New()})
	if err != nil {
		t.Fatal(err)
	}
	h := r.NewHandle()
	var got atomic.Int64
	done := make(chan struct{})
	r.Register(h, HandlerFunc(func(rd Ready) {
		got.Add(1)
		if got.Load() == 10 {
			close(done)
		}
	}))
	r.Run()
	r.Run() // idempotent
	for i := 0; i < 10; i++ {
		_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("events not dispatched")
	}
	r.Stop()
	r.Stop() // idempotent
}

func TestDispatchThroughEventProcessor(t *testing.T) {
	proc, err := eventproc.New(eventproc.Config{Name: "reactive", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{DispatcherThreads: 2, Processor: proc})
	if err != nil {
		t.Fatal(err)
	}
	h := r.NewHandle()
	var wg sync.WaitGroup
	const n = 500
	wg.Add(n)
	r.Register(h, HandlerFunc(func(rd Ready) { wg.Done() }))
	r.Run()
	for i := 0; i < n; i++ {
		_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("pool dispatch incomplete")
	}
	r.Stop()
}

func TestTypeFallbackHandler(t *testing.T) {
	r, err := New(Config{DispatcherThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Ready, 1)
	r.RegisterType(AcceptReady, HandlerFunc(func(rd Ready) { got <- rd }))
	r.Run()
	defer r.Stop()
	_ = r.Source().Emit(Ready{Type: AcceptReady, Handle: 999})
	select {
	case rd := <-got:
		if rd.Handle != 999 {
			t.Errorf("fallback got %v", rd)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("type fallback not used")
	}
}

func TestPerHandleBeatsTypeFallback(t *testing.T) {
	r, err := New(Config{DispatcherThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := r.NewHandle()
	got := make(chan string, 1)
	r.RegisterType(ReadReady, HandlerFunc(func(Ready) { got <- "type" }))
	r.Register(h, HandlerFunc(func(Ready) { got <- "handle" }))
	r.Run()
	defer r.Stop()
	_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	if who := <-got; who != "handle" {
		t.Errorf("dispatched to %q", who)
	}
}

func TestUnhandledEventsCountedAsDropped(t *testing.T) {
	tr := logging.NewTrace(nil, 16)
	r, err := New(Config{DispatcherThreads: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	_ = r.Source().Emit(Ready{Type: ReadReady, Handle: 12345})
	deadline := time.After(2 * time.Second)
	for r.Dropped() == 0 {
		select {
		case <-deadline:
			t.Fatal("drop not counted")
		case <-time.After(time.Millisecond):
		}
	}
	r.Stop()
}

func TestDeregisterStopsDispatch(t *testing.T) {
	r, err := New(Config{DispatcherThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := r.NewHandle()
	var calls atomic.Int64
	r.Register(h, HandlerFunc(func(Ready) { calls.Add(1) }))
	r.Run()
	_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	deadline := time.After(2 * time.Second)
	for calls.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("first event not dispatched")
		case <-time.After(time.Millisecond):
		}
	}
	r.Deregister(h)
	_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	deadline = time.After(2 * time.Second)
	for r.Dropped() == 0 {
		select {
		case <-deadline:
			t.Fatal("deregistered event not dropped")
		case <-time.After(time.Millisecond):
		}
	}
	if calls.Load() != 1 {
		t.Errorf("handler called %d times after deregister", calls.Load())
	}
	r.Stop()
}

func TestHandlerPanicIsolatedInline(t *testing.T) {
	tr := logging.NewTrace(nil, 16)
	r, err := New(Config{DispatcherThreads: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	h := r.NewHandle()
	done := make(chan struct{})
	first := true
	r.Register(h, HandlerFunc(func(Ready) {
		if first {
			first = false
			panic("handler exploded")
		}
		close(done)
	}))
	r.Run()
	_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("dispatcher died after handler panic")
	}
	r.Stop()
}

func TestNewHandleUnique(t *testing.T) {
	r, _ := New(Config{DispatcherThreads: 1})
	seen := make(map[Handle]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h := r.NewHandle()
				mu.Lock()
				if seen[h] {
					t.Errorf("duplicate handle %d", h)
				}
				seen[h] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// Property: the source conserves and orders events for any emit sequence.
func TestQuickSourceConservesOrder(t *testing.T) {
	f := func(handles []uint16) bool {
		s := NewBasicSource("q")
		for _, h := range handles {
			if s.Emit(Ready{Handle: Handle(h)}) != nil {
				return false
			}
		}
		for _, h := range handles {
			r, ok := s.Next()
			if !ok || r.Handle != Handle(h) {
				return false
			}
		}
		return s.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDispatchInline(b *testing.B) {
	r, _ := New(Config{DispatcherThreads: 1})
	h := r.NewHandle()
	var wg sync.WaitGroup
	r.Register(h, HandlerFunc(func(Ready) { wg.Done() }))
	r.Run()
	defer r.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	}
	wg.Wait()
}

func BenchmarkDispatchThroughPool(b *testing.B) {
	proc, _ := eventproc.New(eventproc.Config{Name: "reactive", Workers: 4})
	r, _ := New(Config{DispatcherThreads: 1, Processor: proc})
	h := r.NewHandle()
	var wg sync.WaitGroup
	r.Register(h, HandlerFunc(func(Ready) { wg.Done() }))
	r.Run()
	defer r.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		_ = r.Source().Emit(Ready{Type: ReadReady, Handle: h})
	}
	wg.Wait()
}
