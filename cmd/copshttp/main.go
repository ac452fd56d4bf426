// Command copshttp runs the COPS-HTTP static web server: the paper's
// high-performance Web server built on the N-Server framework.
//
// Usage:
//
//	copshttp -addr :8080 -root ./site
//	copshttp -addr :8080 -root ./site -cache LFU -cache-bytes 33554432
//	copshttp -addr :8080 -root ./site -sched 1,8 -profile
//	copshttp -addr :8080 -root ./site -overload 20,5 -decode-delay 50ms
//	copshttp -addr :8080 -root ./site -materialize 4   # SpecWeb99-like set
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/copshttp"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/nserver"
	"repro/internal/options"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		root        = flag.String("root", "", "document root (required)")
		cachePolicy = flag.String("cache", "LRU", "file cache policy: None, LRU, LFU, LRU-MIN, LRU-Threshold, Hyper-G")
		cacheBytes  = flag.Int64("cache-bytes", 20<<20, "file cache capacity in bytes")
		sched       = flag.String("sched", "", "event scheduling quotas 'portal,homepage' (e.g. 1,8); empty disables O8")
		overload    = flag.String("overload", "", "overload watermarks 'high,low' (e.g. 20,5); empty disables O9")
		decodeDelay = flag.Duration("decode-delay", 0, "CPU burn per decoded request (the paper's 3rd experiment)")
		readTO      = flag.Duration("read-timeout", 0, "per-read and request-assembly deadline (slowloris defense); 0 disables")
		writeTO     = flag.Duration("write-timeout", 0, "per-reply write deadline; 0 disables")
		maxReq      = flag.Int("max-request", 0, "max buffered request bytes per connection; 0 is unlimited")
		largeFile   = flag.Int64("large-file-threshold", 1<<20, "stream files of at least this many bytes from a descriptor (sendfile on Linux), bypassing the cache; 0 buffers everything")
		shed        = flag.Bool("shed", false, "with -overload: answer 503+Retry-After while the gate is paused instead of postponing accepts")
		retryAfter  = flag.Duration("retry-after", 0, "Retry-After delay on shed 503 replies (default 1s; while the admission limiter is engaged its backoff horizon overrides it)")
		shards      = flag.Int("shards", 0, "runtime shards (reactor + event pool per shard); 0 = one per CPU, 1 = the paper's single-reactor layout")
		profile     = flag.Bool("profile", false, "enable performance profiling (O11)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus/JSON metrics on this address (/metrics, /metrics.json); empty disables")
		debug       = flag.Bool("debug", false, "generate in debug mode (O10): print the internal event trace on exit")
		materialize = flag.Int("materialize", 0, "materialize a SpecWeb99-like file set of N directories under -root first")
	)
	flag.Parse()
	if *root == "" {
		fmt.Fprintln(os.Stderr, "copshttp: -root is required")
		os.Exit(2)
	}

	if *materialize > 0 {
		fs := workload.GenerateFileSet(*materialize)
		if err := fs.Materialize(*root); err != nil {
			fatal(err)
		}
		fmt.Printf("materialized %d files (%d bytes) under %s\n",
			len(fs.Files), fs.TotalBytes(), *root)
	}

	opts := options.COPSHTTP()
	policy, err := options.ParseCachePolicy(*cachePolicy)
	if err != nil {
		fatal(err)
	}
	opts.Cache = policy
	opts.CacheCapacity = *cacheBytes
	if policy == options.NoCache {
		opts.CacheCapacity = 0
		opts.FileIOThreads = 0
	}
	if policy == options.LRUThreshold {
		opts.CacheThreshold = *cacheBytes / 4
	}
	opts.Profiling = *profile
	opts.Shards = *shards
	if *debug {
		opts.Mode = options.Debug
	}

	var prio nserver.PriorityFunc
	if *sched != "" {
		quotas, err := parseInts(*sched)
		if err != nil {
			fatal(fmt.Errorf("bad -sched: %w", err))
		}
		opts = opts.WithScheduling(quotas...)
		// The paper's 13-line scheduling policy: classify by client IP
		// (here: even final octet = portal, otherwise homepage).
		prio = func(c *nserver.Conn) events.Priority { return clientClass(c.RemoteAddr()) }
	}
	var shedPrio func(net.Conn) events.Priority
	if *overload != "" {
		wm, err := parseInts(*overload)
		if err != nil || len(wm) != 2 {
			fatal(fmt.Errorf("bad -overload %q", *overload))
		}
		opts = opts.WithOverloadControl(wm[0], wm[1])
		// The admission limiter sheds by the same class rule.
		shedPrio = func(c net.Conn) events.Priority { return clientClass(c.RemoteAddr()) }
	}
	if *readTO > 0 || *writeTO > 0 || *maxReq > 0 {
		opts = opts.WithHardening(*readTO, *writeTO, *maxReq)
	}
	if *largeFile > 0 {
		opts = opts.WithLargeFiles(*largeFile)
	}

	srv, err := copshttp.New(copshttp.Config{
		DocRoot:        *root,
		Options:        &opts,
		Priority:       prio,
		DecodeDelay:    *decodeDelay,
		ShedOnOverload: *shed,
		RetryAfter:     *retryAfter,
		ShedPriority:   shedPrio,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.ListenAndServe(*addr); err != nil {
		fatal(err)
	}
	fmt.Printf("COPS-HTTP serving %s on %s (cache=%s, shards=%d)\n",
		*root, srv.Addr(), policy, srv.Framework().Shards())

	if *metricsAddr != "" {
		mcfg := metrics.Config{
			Profile:           srv.Framework().Profile(),
			Cache:             srv.Framework().Cache(),
			Deferred:          srv.Framework().Deferred,
			Shed:              srv.Shed,
			ParkedWrites:      srv.Framework().ParkedWrites,
			LifecycleBadSteps: srv.Framework().LifecycleBadSteps,
		}
		if rc := srv.RespCache(); rc != nil {
			mcfg.RespCache = rc.Stats
		}
		if fio := srv.Framework().AIO(); fio != nil {
			mcfg.CollapsedReads = fio.CollapsedReads
			mcfg.DiskReads = fio.DiskReads
		}
		if l := srv.Framework().Admission(); l != nil {
			mcfg.Admission = l.Snapshot
		}
		ms, err := metrics.NewServer(*metricsAddr, mcfg)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Shutdown()
	if *profile {
		fmt.Println("profile:", srv.Framework().Profile().Snapshot())
	}
	if *debug {
		for _, rec := range srv.Framework().Trace().Snapshot() {
			fmt.Println(rec)
		}
	}
}

// clientClass is the demo's client classification, shared by the O8
// scheduler and the O9 shed priority: an even final IPv4 octet is the
// portal class (priority 0), anything else the homepage class.
func clientClass(addr net.Addr) events.Priority {
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		return 1
	}
	ip := net.ParseIP(host).To4()
	if ip != nil && ip[3]%2 == 0 {
		return 0
	}
	return 1
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "copshttp:", err)
	os.Exit(1)
}
