package profiling

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProfileIsSafeNoop(t *testing.T) {
	var p *Profile
	for c := Counter(0); c < numCounters; c++ {
		p.Add(c, 1)
	}
	p.RequestServed(time.Second)
	p.ObserveFlush(time.Second)
	if s := p.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil snapshot = %+v", s)
	}
	var g *Group
	if g.Global() != nil || g.Shard(0) != nil || g.ShardSnapshots() != nil {
		t.Error("nil group should hand out nil profiles")
	}
	if s := g.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil group snapshot = %+v", s)
	}
	if g.StageSnapshot(StageRead).Count != 0 || g.FlushSnapshot().Count != 0 {
		t.Error("nil group histograms not empty")
	}
}

// TestCounterTableCoversSnapshot checks that the counter table maps every
// counter to its own Snapshot field and every uint64 field to a counter,
// and that exported names are unique.
func TestCounterTableCoversSnapshot(t *testing.T) {
	p := New()
	for c := Counter(0); c < numCounters; c++ {
		p.Add(c, int(c)+1)
	}
	v := reflect.ValueOf(p.Snapshot())
	seen := map[uint64]bool{}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			if n := f.Uint(); n == 0 || n > uint64(numCounters) || seen[n] {
				t.Errorf("field %s = %d: not exactly one counter's value", v.Type().Field(i).Name, n)
			} else {
				seen[n] = true
			}
		}
	}
	if len(seen) != int(numCounters) {
		t.Errorf("%d of %d counters reached a Snapshot field", len(seen), numCounters)
	}
	names := map[string]bool{}
	for c, row := range counters {
		if jsonOnly := Counter(c) == CacheHits || Counter(c) == CacheMisses; (row.name == "") != jsonOnly {
			t.Errorf("counter %d: name %q", c, row.name)
		}
		if row.name != "" && names[row.name] {
			t.Errorf("counter %d repeats name %q", c, row.name)
		}
		names[row.name] = true
	}
}

func TestCountersAccumulate(t *testing.T) {
	p := New()
	p.Add(ConnectionsAccepted, 1)
	p.Add(ConnectionsAccepted, 1)
	p.Add(ConnectionsClosed, 1)
	p.Add(ConnectionsRefused, 1)
	p.RequestServed(100 * time.Millisecond)
	p.RequestServed(300 * time.Millisecond)
	p.Add(BytesRead, 128)
	p.Add(BytesRead, -5) // negative ignored
	p.Add(BytesSent, 1024)
	p.Add(EventsDispatched, 1)
	p.Add(EventsProcessed, 1)
	p.Add(CacheHits, 1)
	p.Add(CacheHits, 1)
	p.Add(CacheHits, 1)
	p.Add(CacheMisses, 1)
	p.Add(IdleShutdowns, 1)

	s := p.Snapshot()
	if s.ConnectionsAccepted != 2 || s.ConnectionsClosed != 1 || s.ConnectionsRefused != 1 {
		t.Errorf("connection counters: %+v", s)
	}
	if s.RequestsServed != 2 || s.MeanServiceTime != 200*time.Millisecond {
		t.Errorf("request counters: served=%d mean=%v", s.RequestsServed, s.MeanServiceTime)
	}
	if s.BytesRead != 128 || s.BytesSent != 1024 {
		t.Errorf("byte counters: %+v", s)
	}
	if s.CacheHits != 3 || s.CacheMisses != 1 {
		t.Errorf("cache counters: %+v", s)
	}
	if got := s.CacheHitRate(); got != 0.75 {
		t.Errorf("CacheHitRate = %f", got)
	}
	if s.IdleShutdowns != 1 {
		t.Errorf("idle shutdowns: %+v", s)
	}
	if !strings.Contains(s.String(), "cache=0.750") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestEmptyCacheRate(t *testing.T) {
	if (Snapshot{}).CacheHitRate() != 0 {
		t.Error("empty cache rate should be 0")
	}
}

func TestConcurrentCounting(t *testing.T) {
	p := New()
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.Add(ConnectionsAccepted, 1)
				p.Add(BytesSent, 3)
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.ConnectionsAccepted != workers*each {
		t.Errorf("accepted = %d", s.ConnectionsAccepted)
	}
	if s.BytesSent != workers*each*3 {
		t.Errorf("sent = %d", s.BytesSent)
	}
}
