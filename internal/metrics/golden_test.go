package metrics

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/options"
	"repro/internal/profiling"
	"repro/internal/respcache"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.* from the current renderer")

// goldenCounters lists every counter but RequestsServed in Snapshot
// field order, the order the golden files were first generated in.
var goldenCounters = []profiling.Counter{
	profiling.ConnectionsAccepted, profiling.ConnectionsClosed, profiling.ConnectionsRefused,
	profiling.BytesRead, profiling.BytesSent, profiling.EventsDispatched, profiling.EventsProcessed,
	profiling.CacheHits, profiling.CacheMisses, profiling.IdleShutdowns, profiling.BytesStreamed,
	profiling.SendfileChunks, profiling.FallbackChunks, profiling.Responses206, profiling.Responses416,
	profiling.OutboundShed, profiling.DirectDispatched, profiling.ReplyWrites,
}

// goldenConfig populates every source the endpoint renders with fixed
// values: a three-shard Group (every counter, stage and flush histogram
// nonzero, distinct per shard and in the global profile), a one-shard
// cache (its shard placement is then independent of the process's hash
// seed), admission state and a balancer whose circuits are closed.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	g := profiling.NewGroup(3)
	profiles := []*profiling.Profile{g.Shard(0), g.Shard(1), g.Shard(2), g.Global()}
	for i, p := range profiles {
		for k, c := range goldenCounters {
			p.Add(c, 1+(3*k+i)%7)
		}
		for r := 0; r <= i; r++ {
			p.RequestServed(time.Duration(r+1) * 1500 * time.Microsecond)
		}
		for st := profiling.Stage(0); st < profiling.NumStages; st++ {
			p.ObserveStage(st, time.Duration(int(st)+i+1)*700*time.Nanosecond)
			p.ObserveStage(st, time.Duration(i+1)*3*time.Millisecond)
		}
		p.ObserveFlush(time.Duration(i+2) * time.Millisecond)
	}
	fc, err := cache.New(1<<20, options.LFU, cache.Config{Shards: 1, MaxEntryBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fc.Put("/a", make([]byte, 100))
	fc.Put("/b", make([]byte, 300))
	fc.Put("/big", make([]byte, 4<<10))
	fc.Get("/a")
	fc.Get("/a")
	fc.Get("/b")
	fc.Get("/missing")
	lb, err := cluster.New(cluster.Config{Backends: []string{"10.0.0.2:80", "10.0.0.1:80"}})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Profile:      g,
		Cache:        fc,
		Cluster:      lb,
		Deferred:     func() uint64 { return 3 },
		Shed:         func() uint64 { return 7 },
		ParkedWrites: func() int { return 2 },
		Admission: func() admission.Snapshot {
			return admission.Snapshot{
				Limit: 48, Engaged: true,
				BaselineWait: 250 * time.Microsecond, RecentWait: 1200 * time.Microsecond,
				RetryAfter: 2500 * time.Millisecond, Observed: 91,
				Shed: []uint64{0, 4, 11}, Admitted: []uint64{5, 2, 0},
			}
		},
		RespCache: func() respcache.Stats {
			return respcache.Stats{Hits: 9, Misses: 2, Stale: 4, Revalidated: 3, Invalidations: 1, Entries: 5}
		},
		CollapsedReads:    func() uint64 { return 6 },
		DiskReads:         func() uint64 { return 13 },
		LifecycleBadSteps: func() uint64 { return 0 },
	}
}

// TestGoldenRendering pins the Prometheus text and the JSON document the
// endpoint serves for fully populated sources, byte for byte. Regenerate
// with `go test ./internal/metrics -run TestGoldenRendering -update` only
// when a change to the output is intended.
func TestGoldenRendering(t *testing.T) {
	h := Handler(goldenConfig(t))
	for _, tc := range []struct{ path, file string }{
		{"/metrics", "golden.prom"},
		{"/metrics.json", "golden.json"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		got := rec.Body.Bytes()
		file := filepath.Join("testdata", tc.file)
		if *update {
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("GET %s differs from %s:\n%s", tc.path, file, got)
		}
	}
}
