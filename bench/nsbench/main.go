// Command nsbench is the repository's end-to-end benchmark: it builds
// ./cmd/copshttp from the same checkout, serves a seeded document tree
// with the server's defaults, drives it over loopback with a closed-loop
// client, verifies every reply, and prints each metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds nsbench and passes its
// arguments on):
//
//	bash bench/run.sh --workload hot_get --seed 1 --seconds 21 --trace 0
//	bash bench/run.sh --workload hot_get --seed 1 --seconds 21 --trace 1
//	bash bench/run.sh --noise 5         # noise self-check, writes bench/NOISE.md
//
// See bench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// slices is how many fresh server pairs one run measures, each for an
// equal share of -seconds. Which of its latency modes a server settles
// into is decided per instance, so several short slices repeat better
// than one long one; specweb_churn's heap keeps growing while the file
// cache fills, so its peak RSS repeats only in slices long enough to get
// near the plateau, some 40 000 replies in (3.5 s at the median speed).
const slices = 6

// setupPairs is how many pairs of server starts — copshttp and the
// reference, in alternating order — a run times, spread evenly over the
// gaps before its slices.
// setup_s is the median of the run's copshttp starts and setup_ratio the
// median of the pairs' ratios, the run's first pair excluded. A pair
// takes about 10 ms.
const setupPairs = 90

// warmup is the unmeasured start of every slice.
const warmup = 500 * time.Millisecond

// trim is the share of window-pair ratios dropped at each end before
// averaging.
const trim = 0.1

type config struct {
	repo, out string
	bin       string // the copshttp binary
	ref       string // the reference server, bench/refserver
	self      string // this binary, which the noise check runs
	seed      int64
	seconds   int
}

// run is one workload's measurement in one invocation.
type run struct {
	wl     *workload
	seed   int64
	doc    *docroot
	root   string
	slices []sliceResult
	trace  *traceResult
	// setup and setupRef hold the timed starts of copshttp and of the
	// reference in seconds, pair by pair; the run's first pair, which pays
	// for cold page-cache reads of the binaries, is not among them.
	setup, setupRef []float64
	warmStarts      bool

	attempted, failed int64
	err               error
}

func main() {
	var (
		cfg       config
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		trace     = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones and writes the span file")
		noiseRuns = flag.Int("noise", 0, "noise self-check: run 2 sets of this many alternating runs per workload and add a table to bench/NOISE.md")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the document tree and the request streams")
	flag.IntVar(&cfg.seconds, "seconds", 21, "measured seconds per run, split over the slices")
	flag.StringVar(&cfg.repo, "repo", "", "repository root holding cmd/copshttp (default: found from the working directory)")
	flag.StringVar(&cfg.out, "out", "", "scratch directory for binaries, document trees, results and spans (default <repo>/.bench_build)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(errors.New("-trace takes 0 or 1"))
	}
	var w *workload
	if *noiseRuns == 0 {
		var err error
		if w, err = findWorkload(*name); err != nil {
			fatal(err)
		}
	}
	runtime.GOMAXPROCS(conns)
	if err := cfg.resolve(); err != nil {
		fatal(err)
	}
	if *noiseRuns > 0 {
		if err := noise(cfg, *noiseRuns, filepath.Join(cfg.repo, "bench", "NOISE.md")); err != nil {
			fatal(err)
		}
		return
	}
	r, err := prepare(cfg, w)
	if err != nil {
		fatal(err)
	}
	if *trace == 1 {
		err = traceRun(cfg, r, time.Duration(cfg.seconds)*time.Second/3, replayRequests)
	} else {
		err = measure(cfg, r)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	res := report(r, *trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// resolve fills in the defaults that depend on the file system and builds
// the servers.
func (c *config) resolve() error {
	if c.seconds < slices {
		return fmt.Errorf("-seconds must be at least %d", slices)
	}
	if c.repo == "" {
		dir, err := os.Getwd()
		if err != nil {
			return err
		}
		for {
			if st, err := os.Stat(filepath.Join(dir, "cmd", "copshttp")); err == nil && st.IsDir() {
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return errors.New("no repository with cmd/copshttp above the working directory")
			}
			dir = parent
		}
		c.repo = dir
	}
	if c.out == "" {
		c.out = filepath.Join(c.repo, ".bench_build")
	}
	var err error
	if c.out, err = filepath.Abs(c.out); err != nil {
		return err
	}
	if c.self, err = os.Executable(); err != nil {
		return err
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	c.bin, c.ref, err = buildServers(c.repo, c.out)
	return err
}

// prepare generates and writes the workload's document tree.
func prepare(cfg config, w *workload) (*run, error) {
	r := &run{wl: w, seed: cfg.seed, doc: newDocroot(w, cfg.seed)}
	r.root = filepath.Join(cfg.out, "docroot", w.name)
	return r, r.doc.write(r.root)
}

// measure is the untraced measurement: slices of fresh servers, each
// after a few timed starts, so drift of the host over the run lands on
// load and set-up alike.
func measure(cfg config, r *run) error {
	length := time.Duration(cfg.seconds) * time.Second / slices
	for s := 0; s < slices; s++ {
		if err := measureSetup(cfg, r, setupPairs/slices); err != nil {
			return err
		}
		res, err := runSlice(cfg, r, length, false)
		if err != nil {
			return fmt.Errorf("slice %d: %w", s, err)
		}
		r.add(res)
	}
	return r.save(cfg, "", nil)
}

func (r *run) add(res sliceResult) {
	r.slices = append(r.slices, res)
	r.attempted += res.attempted
	r.failed += res.failed
	if r.err == nil {
		r.err = res.err
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, in print order.
// The load ratios are the trimmed mean over every window pair of the run;
// rss_peak_mb is the median over slices; setup_ratio is the median over
// the pairs of timed starts and setup_s the median of copshttp's starts.
var endToEnd = []struct {
	name, unit string
	get        func(*run) float64
}{
	{"throughput_ratio", "1", pairs(func(s *sliceResult) []float64 { return s.ThroughputRatio })},
	{"lat_p50_ratio", "1", pairs(func(s *sliceResult) []float64 { return s.P50Ratio })},
	{"lat_p90_ratio", "1", pairs(func(s *sliceResult) []float64 { return s.P90Ratio })},
	{"cpu_per_req_ratio", "1", pairs(func(s *sliceResult) []float64 { return s.CPURatio })},
	{"rss_peak_mb", "MB", perSlice(func(s *sliceResult) float64 { return s.RSSPeakMB })},
	{"setup_ratio", "1", func(r *run) float64 {
		xs := make([]float64, len(r.setup))
		for i := range xs {
			xs[i] = r.setup[i] / r.setupRef[i]
		}
		return median(xs)
	}},
	{"setup_s", "s", func(r *run) float64 { return median(append([]float64(nil), r.setup...)) }},
}

// absolute lists the absolute values printed beside the end-to-end
// metrics, medians over slices. They move with the host's speed, so they
// are diagnostics, not metrics. The spill shares tell whether one server's
// work leaks into the other's windows (see runSlice).
var absolute = []struct {
	name, unit string
	get        func(*run) float64
}{
	{"throughput_rps", "1/s", perSlice(func(s *sliceResult) float64 { return s.ThroughputRPS })},
	{"goodput_MBps", "MB/s", perSlice(func(s *sliceResult) float64 { return s.GoodputMBps })},
	{"lat_p50_us", "us", perSlice(func(s *sliceResult) float64 { return s.LatP50us })},
	{"lat_p90_us", "us", perSlice(func(s *sliceResult) float64 { return s.LatP90us })},
	{"server_cpu_us_per_req", "us", perSlice(func(s *sliceResult) float64 { return s.CPUusPerReq })},
	{"ref_throughput_rps", "1/s", perSlice(func(s *sliceResult) float64 { return s.RefThroughputRPS })},
	{"ref_setup_s", "s", func(r *run) float64 { return median(append([]float64(nil), r.setupRef...)) }},
	{"subject_spill_frac", "1", perSlice(func(s *sliceResult) float64 { return s.SubjectSpill })},
	{"reference_spill_frac", "1", perSlice(func(s *sliceResult) float64 { return s.ReferenceSpill })},
	{"host_probe_ms", "ms", perSlice(func(s *sliceResult) float64 { return float64(s.HostProbeNs) / 1e6 })},
}

// pairs aggregates a per-pair ratio: the trimmed mean over all pairs of
// the run.
func pairs(f func(*sliceResult) []float64) func(*run) float64 {
	return func(r *run) float64 {
		var xs []float64
		for i := range r.slices {
			xs = append(xs, f(&r.slices[i])...)
		}
		return trimmedMean(xs, trim)
	}
}

// perSlice aggregates a per-slice value: the median over the slices.
func perSlice(f func(*sliceResult) float64) func(*run) float64 {
	return func(r *run) float64 {
		var xs []float64
		for i := range r.slices {
			xs = append(xs, f(&r.slices[i]))
		}
		return median(xs)
	}
}

// endToEndMetrics returns r's end-to-end metrics by name.
func (r *run) endToEndMetrics() map[string]metric {
	m := make(map[string]metric)
	for _, e := range endToEnd {
		m[e.name] = metric{e.get(r), e.unit}
	}
	return m
}

// report prints the run's metrics as a table and assembles the result
// line.
func report(r *run, traced bool) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "nsbench: %s: %d of %d requests failed; first: %v\n",
			r.wl.name, r.failed, r.attempted, r.err)
	}
	var names []string
	if traced {
		res.Metrics, names = r.trace.metrics, r.trace.names
	} else {
		res.Metrics = r.endToEndMetrics()
		for _, e := range endToEnd {
			names = append(names, e.name)
		}
	}
	fmt.Printf("%s (seed %d, %d requests, %d failed)\n", r.wl.name, r.seed, r.attempted, r.failed)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if !traced {
		for _, a := range absolute {
			fmt.Printf("  (%s %.4g %s)\n", a.name, a.get(r), a.unit)
		}
	}
	return res
}

// save writes the run's per-slice measurements, host diagnostics
// included, to <out>/results/<workload>-seed<seed><suffix>.json.
func (r *run) save(cfg config, suffix string, extra any) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload":    r.wl.name,
		"seed":        r.seed,
		"seconds":     cfg.seconds,
		"setup_s":     r.setup,
		"ref_setup_s": r.setupRef,
		"slices":      r.slices,
	}
	if extra != nil {
		doc["trace"] = extra
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d%s.json", r.wl.name, r.seed, suffix)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
