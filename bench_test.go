package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (reporting the headline numbers as custom
// metrics), plus ablation benchmarks for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run scaled-down virtual durations; use
// cmd/experiments for full-length runs that print the complete series.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/cache"
	"repro/internal/copshttp"
	"repro/internal/eventproc"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/httpproto"
	"repro/internal/nserver"
	"repro/internal/options"
	"repro/internal/profiling"
	"repro/internal/seda"
	"repro/internal/workload"
)

// benchParams shrinks the virtual measurement for benchmark iterations.
func benchParams() experiments.Params {
	p := experiments.Default()
	p.Duration = 20 * time.Second
	p.Warmup = 4 * time.Second
	return p
}

// BenchmarkTable1OptionValidation measures template option validation
// (the entry cost of every generation and server construction).
func BenchmarkTable1OptionValidation(b *testing.B) {
	ftp, http := options.COPSFTP(), options.COPSHTTP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ftp.Validate(); err != nil {
			b.Fatal(err)
		}
		if err := http.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Generation measures full framework generation for a
// maximal option set — every crosscutting feature of Table 2 woven in.
func BenchmarkTable2Generation(b *testing.B) {
	full := options.COPSHTTP().WithScheduling(1, 8).WithOverloadControl(20, 5)
	full.ShutdownLongIdle = true
	full.IdleTimeout = time.Minute
	full.Profiling = true
	full.Logging = true
	full.Mode = options.Debug
	b.ReportAllocs()
	var ncss int
	for i := 0; i < b.N; i++ {
		a, err := gen.Generate("nserver", full)
		if err != nil {
			b.Fatal(err)
		}
		ncss = a.Stats().NCSS
	}
	b.ReportMetric(float64(ncss), "NCSS")
}

// BenchmarkTable3FTPGen regenerates the COPS-FTP framework (the
// "Generated code" row of Table 3).
func BenchmarkTable3FTPGen(b *testing.B) {
	b.ReportAllocs()
	var st gen.CodeStats
	for i := 0; i < b.N; i++ {
		a, err := gen.Generate("nserver", options.COPSFTP())
		if err != nil {
			b.Fatal(err)
		}
		st = a.Stats()
	}
	b.ReportMetric(float64(st.NCSS), "NCSS")
	b.ReportMetric(float64(st.Classes), "classes")
}

// BenchmarkTable4HTTPGen regenerates the COPS-HTTP framework (the
// "Generated code" row of Table 4).
func BenchmarkTable4HTTPGen(b *testing.B) {
	b.ReportAllocs()
	var st gen.CodeStats
	for i := 0; i < b.N; i++ {
		a, err := gen.Generate("nserver", options.COPSHTTP())
		if err != nil {
			b.Fatal(err)
		}
		st = a.Stats()
	}
	b.ReportMetric(float64(st.NCSS), "NCSS")
	b.ReportMetric(float64(st.Classes), "classes")
}

// BenchmarkFig3Throughput runs the COPS-HTTP vs Apache throughput
// comparison at the paper's crossover points and reports the rates.
func BenchmarkFig3Throughput(b *testing.B) {
	p := benchParams()
	var pts []experiments.Fig3Point
	for i := 0; i < b.N; i++ {
		pts = experiments.RunFig3(p, []int{8, 256, 1024})
	}
	b.ReportMetric(pts[0].Apache.Throughput, "apache_rps@8")
	b.ReportMetric(pts[0].Cops.Throughput, "cops_rps@8")
	b.ReportMetric(pts[1].Apache.Throughput, "apache_rps@256")
	b.ReportMetric(pts[1].Cops.Throughput, "cops_rps@256")
	b.ReportMetric(pts[2].Apache.Throughput, "apache_rps@1024")
	b.ReportMetric(pts[2].Cops.Throughput, "cops_rps@1024")
}

// BenchmarkFig4Fairness runs the heavy-load point of the fairness
// comparison and reports both Jain indices.
func BenchmarkFig4Fairness(b *testing.B) {
	p := benchParams()
	var pts []experiments.Fig3Point
	for i := 0; i < b.N; i++ {
		pts = experiments.RunFig3(p, []int{1024})
	}
	b.ReportMetric(pts[0].Cops.Fairness, "cops_jain@1024")
	b.ReportMetric(pts[0].Apache.Fairness, "apache_jain@1024")
	b.ReportMetric(float64(pts[0].Apache.SynDrops), "apache_syndrops")
}

// BenchmarkFig5Scheduling runs the differentiated-service experiment and
// reports the achieved portal:homepage ratios against the quota targets.
func BenchmarkFig5Scheduling(b *testing.B) {
	p := benchParams()
	var pts []experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		pts = experiments.RunFig5(p, 48, nil)
	}
	for _, pt := range pts[:3] {
		b.ReportMetric(pt.AchievedRatio, "ratio@"+pt.Setting.Label())
	}
	b.ReportMetric(pts[3].PortalRate, "portal_rps@max")
}

// BenchmarkFig6Overload runs the overload-control experiment at 128
// clients and reports mean response times with and without control.
func BenchmarkFig6Overload(b *testing.B) {
	p := benchParams()
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		pts = experiments.RunFig6(p, []int{128})
	}
	pt := pts[0]
	b.ReportMetric(pt.With.MeanResponse.Seconds()*1000, "resp_ms_ctl")
	b.ReportMetric(pt.Without.MeanResponse.Seconds()*1000, "resp_ms_none")
	b.ReportMetric(pt.With.Throughput, "rps_ctl")
	b.ReportMetric(pt.Without.Throughput, "rps_none")
}

// BenchmarkOverload503Shed measures the load-shedding fast path: the
// overload gate is pinned shut, so every accepted connection is answered
// with the prebuilt 503 + Retry-After from pooled buffers and closed.
// One op is one shed connection, end to end over loopback — this is the
// cost a saturated COPS-HTTP pays to refuse a client explicitly instead
// of letting it rot in the listen backlog.
func BenchmarkOverload503Shed(b *testing.B) {
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte("ok"), 0o644); err != nil {
		b.Fatal(err)
	}
	opts := options.COPSHTTP().WithOverloadControl(20, 5)
	srv, err := copshttp.New(copshttp.Config{
		DocRoot:        dir,
		Options:        &opts,
		ShedOnOverload: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	q := &chaosQueue{}
	q.set(100) // pin the gate shut for the whole run
	if err := srv.Framework().Overload().Watch("bench", q, 10, 5); err != nil {
		b.Fatal(err)
	}
	addr := srv.Addr()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 4096)
		for pb.Next() {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Error(err)
				return
			}
			// Drain the shed 503 to EOF; no request bytes are needed.
			for {
				if _, err := conn.Read(buf); err != nil {
					break
				}
			}
			conn.Close()
		}
	})
	b.StopTimer()
	if srv.Shed() == 0 {
		b.Fatal("no connections were shed")
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md section 4)
// ---------------------------------------------------------------------

// echoServer starts a live nserver echo instance for throughput ablations.
func echoServer(b *testing.B, opts options.Options) (*nserver.Server, string) {
	b.Helper()
	srv, err := nserver.New(nserver.Config{
		Options: opts,
		App: nserver.AppFuncs{Request: func(c *nserver.Conn, req any) {
			_ = c.Reply(req.(string))
		}},
		Codec: benchLineCodec{},
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(ln); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

type benchLineCodec struct{}

func (benchLineCodec) Decode(buf []byte) (any, int, error) {
	for i, c := range buf {
		if c == '\n' {
			return string(buf[:i]), i + 1, nil
		}
	}
	return nil, 0, nil
}

func (benchLineCodec) Encode(reply any) ([]byte, error) {
	return append([]byte(reply.(string)), '\n'), nil
}

// runEchoLoad drives b.N echo round trips across 4 connections.
func runEchoLoad(b *testing.B, addr string) {
	b.Helper()
	const conns = 4
	var wg sync.WaitGroup
	per := b.N / conns
	b.ResetTimer()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < per; i++ {
				if _, err := fmt.Fprintf(conn, "x\n"); err != nil {
					b.Error(err)
					return
				}
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkAblationThreadPool compares option O2: handling events on a
// separate Event Processor pool versus inline in the dispatcher thread
// (the classic Reactor).
func BenchmarkAblationThreadPool(b *testing.B) {
	base := options.Options{DispatcherThreads: 1, Codec: true}
	b.Run("inline-reactor", func(b *testing.B) {
		_, addr := echoServer(b, base)
		runEchoLoad(b, addr)
	})
	b.Run("event-processor", func(b *testing.B) {
		o := base
		o.SeparateThreadPool = true
		o.EventThreads = 4
		_, addr := echoServer(b, o)
		runEchoLoad(b, addr)
	})
}

// BenchmarkAblationCompletion compares option O4: synchronous versus
// asynchronous completion events on the emulated async file read path
// (cache hits, so the file system is out of the picture).
func BenchmarkAblationCompletion(b *testing.B) {
	for _, mode := range []options.CompletionMode{
		options.SynchronousCompletion, options.AsynchronousCompletion,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			proc, err := eventproc.New(eventproc.Config{Name: "reactive", Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			proc.Start()
			defer proc.Stop()
			fc, err := cache.New(1<<20, options.LRU, cache.Config{})
			if err != nil {
				b.Fatal(err)
			}
			fc.Put("/hot", make([]byte, 16<<10))
			cfg := aioConfigFor(mode, proc, fc)
			svc := mustAIO(b, cfg)
			svc.Start()
			defer svc.Stop()
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			wg.Add(b.N)
			for i := 0; i < b.N; i++ {
				if _, err := svc.ReadFile("/hot", nil, 0, func(events.Token, []byte, error) {
					wg.Done()
				}); err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
		})
	}
}

// aioConfigFor builds the aio configuration for one completion mode.
func aioConfigFor(mode options.CompletionMode, proc *eventproc.Processor, fc *cache.Cache) aio.Config {
	cfg := aio.Config{Workers: 2, Mode: mode, Cache: fc}
	if mode == options.AsynchronousCompletion {
		cfg.Sink = proc.Submit
	}
	return cfg
}

func mustAIO(b *testing.B, cfg aio.Config) *aio.Service {
	b.Helper()
	svc, err := aio.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkAblationCachePolicies compares the five replacement policies
// under the SpecWeb99-like Zipf access stream (option O6), reporting the
// hit rate each achieves at the paper's 20 MB capacity.
func BenchmarkAblationCachePolicies(b *testing.B) {
	fs := workload.GenerateFileSet(workload.DirsForTotal(int64(2048) * 100 << 10))
	for _, policy := range []options.CachePolicy{
		options.LRU, options.LFU, options.LRUMin, options.LRUThreshold, options.HyperG,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			c, err := cache.New(20<<20, policy, cache.Config{Threshold: 256 << 10})
			if err != nil {
				b.Fatal(err)
			}
			sampler := workload.NewSampler(fs, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := sampler.Pick()
				if _, ok := c.Get(f.Path); !ok {
					c.Put(f.Path, make([]byte, f.Size))
				}
			}
			b.ReportMetric(c.Stats().HitRate(), "hit_rate")
		})
	}
}

// BenchmarkAblationSchedulingOff checks the paper's generative claim that
// disabling a feature removes its cost: the FIFO queue (O8 off) versus
// the priority queue (O8 on) on the same push/pop stream.
func BenchmarkAblationSchedulingOff(b *testing.B) {
	b.Run("fifo-O8-off", func(b *testing.B) {
		q := events.NewFIFO()
		ev := events.Func(func() {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = q.Push(ev)
			q.TryPop()
		}
	})
	b.Run("priority-O8-on", func(b *testing.B) {
		q, err := events.NewPriorityQueue([]int{8, 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = q.Push(events.PFunc{P: events.Priority(i % 2)})
			q.TryPop()
		}
	})
}

// BenchmarkAblationStages contrasts the N-Server's two-processor layout
// with a SEDA-style deep pipeline: the same work crossing 1 versus 5
// stage queues (the thread-switching overhead the paper argues SEDA pays
// when stages outnumber processors).
func BenchmarkAblationStages(b *testing.B) {
	work := func() {
		s := 0
		for i := 0; i < 100; i++ {
			s += i
		}
		_ = s
	}
	for _, stages := range []int{1, 5} {
		b.Run(fmt.Sprintf("stages-%d", stages), func(b *testing.B) {
			procs := make([]*eventproc.Processor, stages)
			for i := range procs {
				p, err := eventproc.New(eventproc.Config{
					Name:    fmt.Sprintf("stage%d", i),
					Workers: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				p.Start()
				defer p.Stop()
				procs[i] = p
			}
			var wg sync.WaitGroup
			// submitAt chains the work through the remaining stages.
			var submitAt func(stage int)
			submitAt = func(stage int) {
				_ = procs[stage].Submit(events.Func(func() {
					work()
					if stage+1 < stages {
						submitAt(stage + 1)
					} else {
						wg.Done()
					}
				}))
			}
			b.ReportAllocs()
			b.ResetTimer()
			wg.Add(b.N)
			for i := 0; i < b.N; i++ {
				submitAt(0)
			}
			wg.Wait()
		})
	}
}

// BenchmarkSEDAVersusNServer makes the paper's Section III criticism
// executable: the same request processing — decode, handle, encode — run
// as a SEDA pipeline (one queue + one thread pool per FSM stage) versus
// the N-Server layout (one reactive Event Processor crossing a single
// queue). With more stages than processors, SEDA pays per-stage queueing
// and thread switching.
func BenchmarkSEDAVersusNServer(b *testing.B) {
	work := func() {
		s := 0
		for i := 0; i < 200; i++ {
			s += i
		}
		_ = s
	}
	b.Run("seda-3-stages", func(b *testing.B) {
		var wg sync.WaitGroup
		p, err := seda.NewPipeline([]seda.StageSpec{
			{Name: "decode", Workers: 2, Handler: func(ev any, emit func(any)) { work(); emit(ev) }},
			{Name: "handle", Workers: 2, Handler: func(ev any, emit func(any)) { work(); emit(ev) }},
			{Name: "encode", Workers: 2, Handler: func(ev any, emit func(any)) { work(); emit(ev) }},
		}, func(any) { wg.Done() })
		if err != nil {
			b.Fatal(err)
		}
		defer p.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		wg.Add(b.N)
		for i := 0; i < b.N; i++ {
			if err := p.Submit(i); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
	})
	b.Run("nserver-one-processor", func(b *testing.B) {
		proc, err := eventproc.New(eventproc.Config{Name: "reactive", Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		proc.Start()
		defer proc.Stop()
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		wg.Add(b.N)
		for i := 0; i < b.N; i++ {
			_ = proc.Submit(events.Func(func() {
				work() // decode
				work() // handle
				work() // encode
				wg.Done()
			}))
		}
		wg.Wait()
	})
}

// ---------------------------------------------------------------------
// Hot-path benchmarks (the PR 1 zero-copy and sharding work; the JSON
// snapshot in BENCH_PR1.json is produced from these by `make bench-allocs`)
// ---------------------------------------------------------------------

// BenchmarkHTTPEncode compares the seed's combined head+body encode (one
// allocation and one memcpy of the whole response per call) against the
// pooled writev-style send, at the SpecWeb99-like 16 KB mean file size.
func BenchmarkHTTPEncode(b *testing.B) {
	body := make([]byte, 16<<10)
	resp := httpproto.NewResponse(200, "text/html", body)
	b.Run("combined", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			wire := httpproto.EncodeResponse(resp)
			if _, err := io.Discard.Write(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("writev-pooled", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := httpproto.WriteResponse(io.Discard, resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMetricsOverhead prices the O11 observability tax on the
// encode+send hot path: the pooled writev encode of BenchmarkHTTPEncode,
// run with a nil profile (O11 unselected — StageStart returns the zero
// time and every observation is a nil-receiver no-op) versus a live
// profile recording the encode-stage histogram and the egress byte
// counter per call. The "on" variant must stay within a few percent of
// "off"; `make bench-metrics` snapshots both into BENCH_PR3.json.
func BenchmarkMetricsOverhead(b *testing.B) {
	body := make([]byte, 16<<10)
	resp := httpproto.NewResponse(200, "text/html", body)
	run := func(b *testing.B, p *profiling.Profile) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			encStart := p.StageStart()
			n, err := httpproto.WriteResponse(io.Discard, resp)
			p.ObserveSince(profiling.StageEncode, encStart)
			p.BytesSent(int(n))
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, profiling.New()) })
}

// BenchmarkCacheParallelGet measures the file cache under a parallel Zipf
// stream for the single-lock layout versus the sharded layout — the
// contention the dispatcher and Event Processor threads put on the cache
// during a cached-file serve storm. The "get" variant is the pure cache-hit
// path (all resident); the "churn" variant overflows capacity under LFU so
// every miss pays the policy's O(n) victim scan, which sharding divides by
// the shard count. Each run also reports the process-wide mutex wait
// attributable to it (mutex_wait_ns/op) — on runners with few cores, wall
// clock alone shows only the shard-hash overhead while the scan division
// and the lock-wait split are the quantities the sharding exists to buy.
func BenchmarkCacheParallelGet(b *testing.B) {
	const keys = 512
	doc := make([]byte, 16<<10)
	paths := make([]string, keys)
	for i := range paths {
		paths[i] = fmt.Sprintf("/docs/dir%d/class%d.html", i/8, i%8)
	}
	mutexWait := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	run := func(b *testing.B, c *cache.Cache, onMiss func(path string)) {
		b.Helper()
		b.ReportAllocs()
		metrics.Read(mutexWait)
		waitBefore := mutexWait[0].Value.Float64()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.2, 1, keys-1)
			for pb.Next() {
				path := paths[zipf.Uint64()]
				if _, ok := c.Get(path); !ok {
					if onMiss == nil {
						b.Fatal("hot document evicted")
					}
					onMiss(path)
				}
			}
		})
		b.StopTimer()
		metrics.Read(mutexWait)
		waitNS := (mutexWait[0].Value.Float64() - waitBefore) * 1e9
		b.ReportMetric(waitNS/float64(b.N), "mutex_wait_ns/op")
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("get/shards-%d", shards), func(b *testing.B) {
			// 64 MB holds the whole 8 MB working set: every Get hits.
			c, err := cache.New(64<<20, options.LRU, cache.Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range paths {
				c.Put(p, doc)
			}
			run(b, c, nil)
		})
		b.Run(fmt.Sprintf("churn/shards-%d", shards), func(b *testing.B) {
			// 2 MB holds an eighth of the working set: the Zipf tail
			// misses, and each miss triggers LFU's full victim scan.
			c, err := cache.New(2<<20, options.LFU, cache.Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range paths {
				c.Put(p, doc)
			}
			run(b, c, func(path string) { c.Put(path, doc) })
		})
	}
}

// BenchmarkLiveEchoThroughput is the end-to-end sanity benchmark: full
// pipeline over loopback TCP with the COPS-HTTP option structure.
func BenchmarkLiveEchoThroughput(b *testing.B) {
	o := options.Options{
		DispatcherThreads:  1,
		SeparateThreadPool: true,
		EventThreads:       4,
		Codec:              true,
	}
	_, addr := echoServer(b, o)
	runEchoLoad(b, addr)
}

// BenchmarkShardScaling serves loopback HTTP with the runtime sharded
// 1, 2 and NumCPU ways. One op is one keep-alive GET; eight concurrent
// connections spread round-robin over the shards, so with several cores
// the per-shard reactors and counters run genuinely in parallel. On a
// single-core host the variants tie (the shards serialize onto one P) —
// the interesting deltas need real hardware, but the benchmark still
// pins that sharding costs nothing when it cannot help.
func BenchmarkShardScaling(b *testing.B) {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir := b.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte("<html>bench</html>"), 0o644); err != nil {
				b.Fatal(err)
			}
			opts := options.COPSHTTP().WithShards(shards)
			srv, err := copshttp.New(copshttp.Config{DocRoot: dir, Options: &opts})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(srv.Shutdown)
			addr := srv.Addr()

			const conns = 8
			per := b.N / conns
			if per == 0 {
				per = 1
			}
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						b.Error(err)
						return
					}
					defer conn.Close()
					r := bufio.NewReader(conn)
					for i := 0; i < per; i++ {
						if _, err := fmt.Fprintf(conn, "GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n"); err != nil {
							b.Error(err)
							return
						}
						cl, err := readResponseHead(r)
						if err != nil {
							b.Error(err)
							return
						}
						if cl > 0 {
							if _, err := io.CopyN(io.Discard, r, cl); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// hotServeServer starts a COPS-HTTP server over loopback with one hot
// 16 KiB document. It serves hot hits through the fast path, on each
// connection's reader goroutine, and runs profiled so each run can
// assert the fast path actually engaged.
func hotServeServer(b *testing.B) *copshttp.Server {
	b.Helper()
	dir := b.TempDir()
	body := make([]byte, 16<<10)
	for i := range body {
		body[i] = 'a' + byte(i%26)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.html"), body, 0o644); err != nil {
		b.Fatal(err)
	}
	opts := options.COPSHTTP()
	opts.Profiling = true
	srv, err := copshttp.New(copshttp.Config{DocRoot: dir, Options: &opts})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	// Warm: the first request misses, renders and publishes the cached
	// response; every measured request must find it already hot.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := conn.Write(hotGetRequest); err != nil {
		b.Fatal(err)
	}
	readHotResponse(b, r)
	return srv
}

// hotGetRequest is the preformed request both hot-serve benchmarks
// repeat, so client-side formatting never shows up in the comparison.
var hotGetRequest = []byte("GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n")

// readHotResponse consumes one full response to the hot document.
func readHotResponse(b *testing.B, r *bufio.Reader) {
	cl, err := readResponseHead(r)
	if err != nil {
		b.Fatal(err)
	}
	if cl > 0 {
		if _, err := io.CopyN(io.Discard, r, cl); err != nil {
			b.Fatal(err)
		}
	}
}

// hotServeClients drives the hot-serve benchmarks' client side: eight
// concurrent keep-alive connections splitting b.N requests, each issuing
// them in pipelined windows of `window` (window 1 is the sequential
// request-response round trip). Concurrency matters here: with one
// connection the queued path hides its event-queue hop behind the
// client's own round-trip think time, and the comparison measures
// nothing. Eight busy connections is where the hop becomes the
// bottleneck the fast path exists to remove.
func hotServeClients(b *testing.B, addr string, window int) {
	const conns = 8
	var batch []byte
	for i := 0; i < window; i++ {
		batch = append(batch, hotGetRequest...)
	}
	per := b.N / conns
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for sent := 0; sent < per; {
				w := window
				if rem := per - sent; rem < w {
					w = rem
				}
				if _, err := conn.Write(batch[:len(hotGetRequest)*w]); err != nil {
					b.Error(err)
					return
				}
				for i := 0; i < w; i++ {
					readHotResponse(b, r)
				}
				sent += w
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

// hotServeBench runs hotServeClients with the given window, asserting
// the fast path served the hits.
func hotServeBench(b *testing.B, window int) {
	srv := hotServeServer(b)
	hotServeClients(b, srv.Addr(), window)
	if snap := srv.Framework().Profile().Snapshot(); snap.DirectDispatched == 0 {
		b.Fatal("fast path never engaged (DirectDispatched = 0)")
	}
}

// BenchmarkHotURLServe measures one keep-alive GET of a hot cached
// document, end to end over loopback: a rendered-response cache hit
// served inline by the goroutine that read it. One op is one
// request-response round trip; eight connections send them concurrently.
func BenchmarkHotURLServe(b *testing.B) { hotServeBench(b, 1) }

// BenchmarkPipelinedHotThroughput measures pipelined hot-GET throughput:
// windows of 16 requests written back to back, then all 16 replies
// drained, on each of the eight concurrent connections. One wakeup
// serves the whole backlog inline from the
// rendered-response cache instead of bouncing every request through the
// event queue. One op is one pipelined request.
func BenchmarkPipelinedHotThroughput(b *testing.B) { hotServeBench(b, 16) }
