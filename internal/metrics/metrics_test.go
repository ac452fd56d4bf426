package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/options"
	"repro/internal/profiling"
	"repro/internal/respcache"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	p := profiling.New()
	p.ConnectionAccepted()
	p.BytesRead(100)
	p.BytesSent(2048)
	p.RequestServed(3 * time.Millisecond)
	p.ReplyWrite()
	for _, st := range profiling.Stages() {
		p.ObserveStage(st, 500*time.Microsecond)
	}
	fc, err := cache.New(1<<20, options.LRU, cache.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	fc.Put("/a", make([]byte, 100))
	fc.Get("/a")
	fc.Get("/missing")
	// Two parked reply residuals drained by the write pump.
	p.ObserveFlush(2 * time.Millisecond)
	p.ObserveFlush(6 * time.Millisecond)
	shed := uint64(7)
	return Config{
		Profile:      p,
		Cache:        fc,
		Shed:         func() uint64 { return shed },
		Deferred:     func() uint64 { return 3 },
		ParkedWrites: func() int { return 12 },
		RespCache: func() respcache.Stats {
			return respcache.Stats{Hits: 9, Misses: 2, Stale: 4, Revalidated: 3, Entries: 1}
		},
	}
}

func TestRenderPrometheus(t *testing.T) {
	text := RenderPrometheus(testConfig(t))
	// All five Fig. 1 stages plus the two internal latencies must appear.
	for _, stage := range []string{"read", "decode", "handle", "encode", "send", "queue_wait", "aio_complete"} {
		want := `nserver_stage_duration_seconds_count{stage="` + stage + `"} 1`
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in rendering", want)
		}
	}
	for _, want := range []string{
		"# TYPE nserver_stage_duration_seconds histogram",
		`le="+Inf"`,
		"nserver_requests_total 1",
		"nserver_sent_bytes_total 2048",
		"nserver_reply_writes_total 1",
		"nserver_cache_hits_total 1",
		"nserver_cache_misses_total 1",
		"nserver_cache_evictions_total 0",
		"nserver_cache_rejects_total 0",
		`nserver_cache_shard_hits_total{shard="0"}`,
		"nserver_accept_deferred_total 3",
		"nserver_shed_replies_total 7",
		"nserver_parked_writes 12",
		"# TYPE nserver_flush_duration_seconds histogram",
		`nserver_flush_duration_seconds_bucket{le="+Inf"} 2`,
		"nserver_flush_duration_seconds_sum 0.008",
		"nserver_flush_duration_seconds_count 2",
		"nserver_respcache_hits_total 9",
		"nserver_respcache_stale_total 4",
		"nserver_respcache_revalidated_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in rendering", want)
		}
	}
	// The histogram buckets must be cumulative and end at the count.
	if !strings.Contains(text, `nserver_stage_duration_seconds_bucket{stage="read",le="+Inf"} 1`) {
		t.Errorf("read stage +Inf bucket should equal count 1\n%s", text)
	}
}

func TestRenderPrometheusEmptySources(t *testing.T) {
	// A nil-everything config renders an empty document, not a panic.
	if got := RenderPrometheus(Config{}); got != "" {
		t.Errorf("empty config rendered %q", got)
	}
}

func TestCollectJSON(t *testing.T) {
	p := collect(testConfig(t))
	if p.Server == nil || p.Server.RequestsServed != 1 {
		t.Fatalf("server section wrong: %+v", p.Server)
	}
	if len(p.Stages) != int(profiling.NumStages) {
		t.Fatalf("got %d stages, want %d", len(p.Stages), profiling.NumStages)
	}
	for _, s := range p.Stages {
		if s.Count != 1 {
			t.Errorf("stage %s count = %d, want 1", s.Stage, s.Count)
		}
		if len(s.Buckets) == 0 || s.Buckets[len(s.Buckets)-1].Cumulative != s.Count {
			t.Errorf("stage %s buckets not cumulative to count: %+v", s.Stage, s.Buckets)
		}
	}
	if p.Cache == nil || p.Cache.Hits != 1 || p.Cache.Misses != 1 || len(p.Cache.Shards) != 4 {
		t.Fatalf("cache section wrong: %+v", p.Cache)
	}
	if p.Deferred == nil || *p.Deferred != 3 || p.Shed == nil || *p.Shed != 7 {
		t.Fatalf("shed/deferred wrong: %+v", p)
	}
	if p.ParkedW == nil || *p.ParkedW != 12 {
		t.Fatalf("parked-writes gauge wrong: %+v", p.ParkedW)
	}
	if p.Flush == nil || p.Flush.Count != 2 || p.Flush.MeanNs != int64(4*time.Millisecond) {
		t.Fatalf("flush section wrong: %+v", p.Flush)
	}
	if _, err := json.Marshal(p); err != nil {
		t.Fatalf("payload not marshalable: %v", err)
	}
}

func TestServerEndToEnd(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text content type = %q", ct)
	}
	if !strings.Contains(string(body), "nserver_requests_total") {
		t.Errorf("prometheus body missing counters: %.200s", body)
	}

	resp, err = http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var p Payload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}
	if p.Server == nil || len(p.Stages) != int(profiling.NumStages) {
		t.Fatalf("json payload incomplete: %+v", p)
	}

	resp, err = http.Post(base+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: %d, want 405", resp.StatusCode)
	}
}

func TestParseCounters(t *testing.T) {
	text := RenderPrometheus(testConfig(t))
	m := ParseCounters(text)
	if m["nserver_requests_total"] != 1 {
		t.Errorf("parsed requests_total = %v, want 1", m["nserver_requests_total"])
	}
	if m["nserver_sent_bytes_total"] != 2048 {
		t.Errorf("parsed sent_bytes_total = %v, want 2048", m["nserver_sent_bytes_total"])
	}
	if _, ok := m["nserver_stage_duration_seconds_count"]; ok {
		t.Error("labeled series should be skipped by ParseCounters")
	}
}
