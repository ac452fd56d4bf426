// Package metrics is the admin side of the observability layer grown out
// of options O11/O12: it exports the profiling counters, the per-stage
// pipeline latency histograms, per-shard file-cache statistics, acceptor
// shed counts and per-backend circuit-breaker state over a small HTTP
// endpoint, in both Prometheus text exposition format and JSON.
//
// The endpoint is deliberately separate from the serve pipeline: it runs
// on its own listener (the -metrics-addr flag of the cops* commands) and
// only reads atomic counters and per-shard snapshots, so scraping never
// contends with request processing beyond the shard mutexes the snapshot
// briefly takes.
//
// Prometheus naming: every series carries the "nserver_" prefix; counters
// end in "_total"; the stage histogram follows the standard histogram
// convention (nserver_stage_duration_seconds_bucket{stage=...,le=...}
// cumulative buckets plus _sum and _count).
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/profiling"
	"repro/internal/respcache"
)

// Config wires the sources the endpoint exports. Every field is optional:
// nil sources are simply omitted from the output, so the same handler
// serves a bare balancer (no profile, no cache) and a full COPS-HTTP.
type Config struct {
	// Profile supplies server counters and stage histograms (O11); its
	// Snapshot aggregates the shards lazily at scrape time. With more
	// than one shard the JSON document also carries the per-shard
	// breakdown and the Prometheus rendering per-shard series. A writer
	// without shards records through profiling.NewGroup(1).Global().
	Profile *profiling.Group
	// Cache supplies aggregate and per-shard file-cache stats (O6).
	Cache *cache.Cache
	// Cluster supplies per-backend circuit-breaker state.
	Cluster *cluster.Balancer
	// Deferred reports how many accepts the acceptor postponed or shed
	// (nserver.Server.Deferred).
	Deferred func() uint64
	// Shed reports application-level shed replies (e.g. the COPS-HTTP
	// 503 fast path).
	Shed func() uint64
	// ParkedWrites reports connections holding a non-empty parked
	// outbound queue — replies the write pump is finishing on the
	// netpoller (nserver.Server.ParkedWrites). Nil omits the gauge.
	ParkedWrites func() int
	// Admission reports the adaptive admission limiter's state
	// (nserver.Server.Admission().Snapshot). Nil omits the
	// nserver_admission_* series.
	Admission func() admission.Snapshot
	// RespCache reports the rendered-response cache counters behind the
	// fast path (respcache.Cache.Stats). Nil omits the
	// nserver_respcache_* series.
	RespCache func() respcache.Stats
	// CollapsedReads reports file reads absorbed by the AIO singleflight
	// (aio.Service.CollapsedReads). Nil omits the counter.
	CollapsedReads func() uint64
	// DiskReads reports file reads that actually went to disk
	// (aio.Service.DiskReads). Nil omits the counter.
	DiskReads func() uint64
	// LifecycleBadSteps reports connection lifecycle transitions the
	// table forbids (nserver.Server.LifecycleBadSteps); it must read 0.
	// Nil omits the counter.
	LifecycleBadSteps func() uint64
}

// Handler returns the HTTP handler serving the metrics endpoint:
// Prometheus text at any path by default, JSON when the path ends in
// ".json" or the request carries ?format=json.
func Handler(cfg Config) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if strings.HasSuffix(r.URL.Path, ".json") || r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(collect(cfg))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(RenderPrometheus(cfg)))
	})
}

// Server runs the metrics endpoint on its own listener.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// NewServer binds addr and starts serving the endpoint; /metrics and
// /metrics.json are the canonical paths (the handler answers every path).
func NewServer(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           Handler(cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }

// StageJSON is one stage histogram in the JSON rendering.
type StageJSON struct {
	Stage   string       `json:"stage"`
	Count   uint64       `json:"count"`
	SumNs   int64        `json:"sum_ns"`
	MeanNs  int64        `json:"mean_ns"`
	P50Ns   int64        `json:"p50_ns"`
	P99Ns   int64        `json:"p99_ns"`
	Buckets []BucketJSON `json:"buckets"`
}

// BucketJSON is one non-empty histogram bucket: cumulative count of
// observations at or below the upper bound.
type BucketJSON struct {
	LeNs       int64  `json:"le_ns"` // -1 encodes +Inf
	Cumulative uint64 `json:"cumulative"`
}

// BackendJSON is one cluster backend in the JSON rendering.
type BackendJSON struct {
	Addr      string `json:"addr"`
	State     string `json:"state"`
	Fails     int    `json:"fails"`
	Live      int64  `json:"live"`
	Forwarded uint64 `json:"forwarded"`
	OpenUntil string `json:"open_until,omitempty"`
}

// CacheJSON is the cache section of the JSON rendering.
type CacheJSON struct {
	Policy  string  `json:"policy"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Evict   uint64  `json:"evictions"`
	Rejects uint64  `json:"rejects"`
	// RejectedTooLarge counts Puts refused by the large-file admission
	// cap (kept apart from rejects so operators can tell cap pressure
	// from policy pressure).
	RejectedTooLarge uint64        `json:"rejected_too_large"`
	Bytes            int64         `json:"bytes"`
	Entries          int           `json:"entries"`
	Shards           []cache.Stats `json:"shards"`
}

// ShardJSON is one runtime shard's counter snapshot in the JSON
// rendering (sharded runtimes only).
type ShardJSON struct {
	Shard    int                `json:"shard"`
	Counters profiling.Snapshot `json:"counters"`
}

// FlushJSON is the parked-write flush-latency section of the JSON
// rendering (replies parked on the netpoller).
type FlushJSON struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// Payload is the complete JSON document.
type Payload struct {
	Server    *profiling.Snapshot `json:"server,omitempty"`
	Shards    []ShardJSON         `json:"shards,omitempty"`
	Stages    []StageJSON         `json:"stages,omitempty"`
	Cache     *CacheJSON          `json:"cache,omitempty"`
	Deferred  *uint64             `json:"deferred,omitempty"`
	Shed      *uint64             `json:"shed,omitempty"`
	ParkedW   *int                `json:"parked_writes,omitempty"`
	Flush     *FlushJSON          `json:"flush_latency,omitempty"`
	Admission *admission.Snapshot `json:"admission,omitempty"`
	Cluster   []BackendJSON       `json:"cluster,omitempty"`
	RespCache *respcache.Stats    `json:"respcache,omitempty"`
	Collapsed *uint64             `json:"collapsed_reads,omitempty"`
	DiskReads *uint64             `json:"disk_reads,omitempty"`
	BadSteps  *uint64             `json:"lifecycle_bad_steps,omitempty"`
}

// collect gathers every configured source into the JSON document.
func collect(cfg Config) Payload {
	var p Payload
	if cfg.Profile != nil {
		snap := cfg.Profile.Snapshot()
		p.Server = &snap
		if shards := cfg.Profile.ShardSnapshots(); len(shards) > 1 {
			for i, ss := range shards {
				p.Shards = append(p.Shards, ShardJSON{Shard: i, Counters: ss})
			}
		}
		for st := profiling.Stage(0); st < profiling.NumStages; st++ {
			hs := cfg.Profile.StageSnapshot(st)
			sj := StageJSON{
				Stage:  st.String(),
				Count:  hs.Count,
				SumNs:  int64(hs.Sum),
				MeanNs: int64(hs.Mean()),
				P50Ns:  int64(hs.Quantile(0.50)),
				P99Ns:  int64(hs.Quantile(0.99)),
			}
			var cum uint64
			for i, b := range hs.Buckets {
				cum += b
				if b == 0 {
					continue
				}
				le := int64(profiling.BucketBound(i))
				if i == profiling.NumBuckets-1 {
					le = -1
				}
				sj.Buckets = append(sj.Buckets, BucketJSON{LeNs: le, Cumulative: cum})
			}
			p.Stages = append(p.Stages, sj)
		}
		if fs := cfg.Profile.FlushSnapshot(); fs.Count > 0 {
			p.Flush = &FlushJSON{
				Count:  fs.Count,
				MeanNs: int64(fs.Mean()),
				P50Ns:  int64(fs.Quantile(0.50)),
				P99Ns:  int64(fs.Quantile(0.99)),
			}
		}
	}
	if cfg.Cache != nil {
		agg := cfg.Cache.Stats()
		p.Cache = &CacheJSON{
			Policy:           fmt.Sprint(cfg.Cache.Policy()),
			Hits:             agg.Hits,
			Misses:           agg.Misses,
			HitRate:          agg.HitRate(),
			Evict:            agg.Evictions,
			Rejects:          agg.Rejects,
			RejectedTooLarge: agg.RejectedTooLarge,
			Bytes:            agg.Bytes,
			Entries:          agg.Entries,
			Shards:           cfg.Cache.ShardStats(),
		}
	}
	if cfg.Deferred != nil {
		v := cfg.Deferred()
		p.Deferred = &v
	}
	if cfg.Shed != nil {
		v := cfg.Shed()
		p.Shed = &v
	}
	if cfg.ParkedWrites != nil {
		v := cfg.ParkedWrites()
		p.ParkedW = &v
	}
	if cfg.Admission != nil {
		v := cfg.Admission()
		p.Admission = &v
	}
	if cfg.RespCache != nil {
		v := cfg.RespCache()
		p.RespCache = &v
	}
	if cfg.CollapsedReads != nil {
		v := cfg.CollapsedReads()
		p.Collapsed = &v
	}
	if cfg.DiskReads != nil {
		v := cfg.DiskReads()
		p.DiskReads = &v
	}
	if cfg.LifecycleBadSteps != nil {
		v := cfg.LifecycleBadSteps()
		p.BadSteps = &v
	}
	if cfg.Cluster != nil {
		for _, bs := range cfg.Cluster.BackendStates() {
			bj := BackendJSON{
				Addr: bs.Addr, State: bs.State, Fails: bs.Fails,
				Live: bs.Live, Forwarded: bs.Forwarded,
			}
			if !bs.OpenUntil.IsZero() {
				bj.OpenUntil = bs.OpenUntil.Format(time.RFC3339Nano)
			}
			p.Cluster = append(p.Cluster, bj)
		}
	}
	return p
}

// promLe renders a bucket upper bound in seconds for the le label.
func promLe(i int) string {
	if i >= profiling.NumBuckets-1 {
		return "+Inf"
	}
	return strconv.FormatFloat(profiling.BucketBound(i).Seconds(), 'g', -1, 64)
}

// RenderPrometheus renders every configured source in the Prometheus text
// exposition format.
func RenderPrometheus(cfg Config) string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	// hist appends one histogram series; label, when set, is a
	// name="value" pair that leads every sample's label set.
	hist := func(name, label string, hs profiling.HistogramSnapshot) {
		sep, set := "", ""
		if label != "" {
			sep, set = label+",", "{"+label+"}"
		}
		var cum uint64
		for i, c := range hs.Buckets {
			cum += c
			// Empty buckets below +Inf are elided; cumulative
			// semantics keep the series well-formed.
			if c == 0 && i != profiling.NumBuckets-1 {
				continue
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", name, sep, promLe(i), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n%s_count%s %d\n", name, set,
			strconv.FormatFloat(hs.Sum.Seconds(), 'g', -1, 64), name, set, hs.Count)
	}
	if cfg.Profile != nil {
		cfg.Profile.Snapshot().EachCounter(counter)

		const hname = "nserver_stage_duration_seconds"
		fmt.Fprintf(&b, "# HELP %s Pipeline stage latency (Fig. 1 steps plus queue wait and AIO completion).\n# TYPE %s histogram\n", hname, hname)
		for st := profiling.Stage(0); st < profiling.NumStages; st++ {
			hist(hname, fmt.Sprintf("stage=%q", st), cfg.Profile.StageSnapshot(st))
		}
		if shards := cfg.Profile.ShardSnapshots(); len(shards) > 1 {
			const rname = "nserver_shard_requests_total"
			fmt.Fprintf(&b, "# HELP %s Requests served per runtime shard.\n# TYPE %s counter\n", rname, rname)
			for i, ss := range shards {
				fmt.Fprintf(&b, "%s{shard=\"%d\"} %d\n", rname, i, ss.RequestsServed)
			}
			const cname2 = "nserver_shard_connections_accepted_total"
			fmt.Fprintf(&b, "# HELP %s Connections accepted per runtime shard.\n# TYPE %s counter\n", cname2, cname2)
			for i, ss := range shards {
				fmt.Fprintf(&b, "%s{shard=\"%d\"} %d\n", cname2, i, ss.ConnectionsAccepted)
			}
		}
		if fs := cfg.Profile.FlushSnapshot(); fs.Count > 0 {
			const fhname = "nserver_flush_duration_seconds"
			fmt.Fprintf(&b, "# HELP %s Park-to-flushed latency of reply residuals parked on the netpoller.\n# TYPE %s histogram\n", fhname, fhname)
			hist(fhname, "", fs)
		}
	}
	if cfg.Cache != nil {
		agg := cfg.Cache.Stats()
		counter("nserver_cache_hits_total", "File cache hits.", agg.Hits)
		counter("nserver_cache_misses_total", "File cache misses.", agg.Misses)
		counter("nserver_cache_evictions_total", "File cache evictions.", agg.Evictions)
		counter("nserver_cache_rejects_total", "Put calls refused by the admission rule.", agg.Rejects)
		counter("nserver_cache_rejected_too_large_total", "Put calls refused by the large-file admission cap.", agg.RejectedTooLarge)
		gauge("nserver_cache_bytes", "Resident cache bytes.", float64(agg.Bytes))
		gauge("nserver_cache_entries", "Resident cache entries.", float64(agg.Entries))
		shards := cfg.Cache.ShardStats()
		const sname = "nserver_cache_shard_hits_total"
		fmt.Fprintf(&b, "# HELP %s Per-shard file cache hits.\n# TYPE %s counter\n", sname, sname)
		for i, sh := range shards {
			fmt.Fprintf(&b, "%s{shard=\"%d\"} %d\n", sname, i, sh.Hits)
		}
		const bname = "nserver_cache_shard_bytes"
		fmt.Fprintf(&b, "# HELP %s Per-shard resident bytes.\n# TYPE %s gauge\n", bname, bname)
		for i, sh := range shards {
			fmt.Fprintf(&b, "%s{shard=\"%d\"} %d\n", bname, i, sh.Bytes)
		}
	}
	if cfg.Deferred != nil {
		counter("nserver_accept_deferred_total", "Accepts postponed (each counted once) or connections shed by the acceptor gate.", cfg.Deferred())
	}
	if cfg.Shed != nil {
		counter("nserver_shed_replies_total", "Requests answered by the overload shed fast path.", cfg.Shed())
	}
	if cfg.RespCache != nil {
		rs := cfg.RespCache()
		counter("nserver_respcache_hits_total", "Rendered-response cache hits (fast-path serves).", rs.Hits)
		counter("nserver_respcache_misses_total", "Rendered-response cache misses.", rs.Misses)
		counter("nserver_respcache_stale_total", "Lookups that found the entry past its revalidate window.", rs.Stale)
		counter("nserver_respcache_revalidated_total", "Stale entries confirmed by an inline stat and served on the fast path (each also a hit).", rs.Revalidated)
		counter("nserver_respcache_invalidations_total", "Rendered entries dropped by stat mismatch or file-cache removal.", rs.Invalidations)
		gauge("nserver_respcache_entries", "Resident rendered-response entries.", float64(rs.Entries))
	}
	if cfg.CollapsedReads != nil {
		counter("nserver_singleflight_collapsed_total", "File reads absorbed by the in-flight read they joined.", cfg.CollapsedReads())
	}
	if cfg.DiskReads != nil {
		counter("nserver_file_reads_total", "File reads that went to disk (cache and singleflight misses).", cfg.DiskReads())
	}
	if cfg.LifecycleBadSteps != nil {
		counter("nserver_lifecycle_bad_steps_total", "Connection lifecycle transitions the table forbids; any but 0 is a runtime defect.", cfg.LifecycleBadSteps())
	}
	if cfg.ParkedWrites != nil {
		gauge("nserver_parked_writes", "Connections holding an outbound queue parked on the netpoller, mid-drain by the write pump.", float64(cfg.ParkedWrites()))
	}
	if cfg.Admission != nil {
		s := cfg.Admission()
		gauge("nserver_admission_limit", "Adaptive admission limiter's current concurrency limit.", float64(s.Limit))
		engaged := 0.0
		if s.Engaged {
			engaged = 1
		}
		gauge("nserver_admission_engaged", "1 while the limiter holds the limit below its maximum.", engaged)
		gauge("nserver_admission_baseline_wait_seconds", "Estimated no-load queue-wait baseline.", s.BaselineWait.Seconds())
		gauge("nserver_admission_recent_wait_seconds", "Recent queue-wait estimate the limiter compares against baseline.", s.RecentWait.Seconds())
		gauge("nserver_admission_retry_after_seconds", "Backoff horizon advertised on shed replies.", s.RetryAfter.Seconds())
		counter("nserver_admission_observed_samples_total", "Queue-wait samples fed to the limiter.", s.Observed)
		const shname = "nserver_admission_shed_total"
		fmt.Fprintf(&b, "# HELP %s Connections shed by the limiter per priority level.\n# TYPE %s counter\n", shname, shname)
		for i, v := range s.Shed {
			fmt.Fprintf(&b, "%s{level=\"%d\"} %d\n", shname, i, v)
		}
		const adname = "nserver_admission_admitted_total"
		fmt.Fprintf(&b, "# HELP %s Connections re-admitted by priority during overload per level.\n# TYPE %s counter\n", adname, adname)
		for i, v := range s.Admitted {
			fmt.Fprintf(&b, "%s{level=\"%d\"} %d\n", adname, i, v)
		}
	}
	if cfg.Cluster != nil {
		states := cfg.Cluster.BackendStates()
		sort.Slice(states, func(i, j int) bool { return states[i].Addr < states[j].Addr })
		const cname = "nserver_cluster_backend_up"
		fmt.Fprintf(&b, "# HELP %s Circuit breaker state per backend (1 closed/healthy, 0 open).\n# TYPE %s gauge\n", cname, cname)
		for _, bs := range states {
			up := 0
			if bs.State == "closed" {
				up = 1
			}
			fmt.Fprintf(&b, "%s{backend=%q} %d\n", cname, bs.Addr, up)
		}
		const fname = "nserver_cluster_backend_forwarded_total"
		fmt.Fprintf(&b, "# HELP %s Total connections forwarded per backend.\n# TYPE %s counter\n", fname, fname)
		for _, bs := range states {
			fmt.Fprintf(&b, "%s{backend=%q} %d\n", fname, bs.Addr, bs.Forwarded)
		}
		const lname = "nserver_cluster_backend_live"
		fmt.Fprintf(&b, "# HELP %s Currently open forwarded connections per backend.\n# TYPE %s gauge\n", lname, lname)
		for _, bs := range states {
			fmt.Fprintf(&b, "%s{backend=%q} %d\n", lname, bs.Addr, bs.Live)
		}
	}
	return b.String()
}

// ParseCounters extracts every un-labeled numeric sample from a
// Prometheus text rendering into a name -> value map. Test helper for
// monotonicity checks; labeled series are skipped.
func ParseCounters(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		out[fields[0]] = v
	}
	return out
}
