package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The speed of a shared host drifts: on the 2-vCPU machine this benchmark
// was built on, a fixed probe took anywhere from 170 to 520 ms, with
// changes inside a second, and every absolute time of copshttp moved with
// it. A slice therefore runs copshttp next to a fixed reference server —
// Go's net/http file server over the same tree, bench/refserver — and
// the client alternates between the two every workload period. Each time
// metric is a ratio of copshttp to the reference over one pair of
// adjacent windows, so drift slower than a pair cancels, and the run
// reports the trimmed mean over all pairs.
//
// Both servers stay up for the whole slice, so work one of them defers
// past its window — garbage collection, file-I/O workers, teardown of
// churned connections — runs in the other's window and slows it. Each
// slice therefore records each server's share of its CPU spent in the
// other's windows (SubjectSpill, ReferenceSpill).

// Targets of the alternation: even windows drive copshttp, odd windows
// the reference.
const (
	subject = iota
	reference
	targets
)

// clock is the shared time base of one slice. Workers tally only replies
// completed between measureStart and the last window's end, by the window
// they completed in; measureStart is 0 until it is chosen.
type clock struct {
	t0           time.Time
	period       int64 // ns per window
	measureStart atomic.Int64
	stop         atomic.Bool
}

func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

// active is the target the schedule drives at ns since t0.
func (c *clock) active(ns int64) int { return int(ns/c.period) % targets }

// tally is one worker's counts for one target.
type tally struct {
	port   int
	c      *conn
	served int
	early  int64     // replies completed before the measured windows
	counts []int64   // replies per period window
	bytes  []int64   // body bytes per period window
	lat    [][]int64 // per period window: ns from request write to last body byte
}

// worker is one client's closed loop over both targets.
type worker struct {
	wl   *workload
	d    *docroot
	next func() *file
	buf  []byte
	t    [targets]*tally
	// rtt holds [start, end] pairs of measured copshttp batches for the
	// traced slice's client.rtt spans; nil when not tracing.
	rtt []int64

	attempted, failed int64
	err               error // first failure
}

func newWorker(wl *workload, d *docroot, next func() *file, ports [targets]int, windows int, trace bool) *worker {
	w := &worker{wl: wl, d: d, next: next, buf: make([]byte, wl.bufSize)}
	for i := range w.t {
		w.t[i] = &tally{
			port:   ports[i],
			counts: make([]int64, windows),
			bytes:  make([]int64, windows),
			lat:    make([][]int64, windows),
		}
	}
	if trace {
		w.rtt = make([]int64, 0, 1<<17)
	}
	return w
}

func (w *worker) fail(n int, err error) {
	w.failed += int64(n)
	if w.err == nil {
		w.err = err
	}
}

func (w *worker) run(clk *clock) {
	defer func() {
		for _, t := range w.t {
			if t.c != nil {
				t.c.close()
			}
		}
	}()
	batch := make([]*file, w.wl.window)
	var reqs []byte
	replies := 0
	for !clk.stop.Load() {
		target := clk.active(clk.now())
		t := w.t[target]
		if t.c == nil {
			var err error
			if t.c, err = dial(t.port, w.buf); err != nil {
				w.attempted++
				w.fail(1, err)
				time.Sleep(time.Millisecond)
				continue
			}
			t.served = 0
		}
		reqs = reqs[:0]
		for i := range batch {
			batch[i] = w.next()
			reqs = append(reqs, batch[i].req...)
		}
		w.attempted += int64(len(batch))
		start := clk.now()
		if err := t.c.send(reqs); err != nil {
			w.fail(len(batch), err)
			t.c.close()
			t.c = nil
			continue
		}
		for i, f := range batch {
			replies++
			if err := t.c.get(w.d, f, replies%w.wl.verifyEvery == 0); err != nil {
				w.fail(len(batch)-i, fmt.Errorf("GET %s: %w", f.path, err))
				t.c.close()
				t.c = nil
				break
			}
			end := w.record(clk, target, start, f.size)
			if w.rtt != nil && target == subject && end != 0 && i == len(batch)-1 {
				w.rtt = append(w.rtt, start, end)
			}
		}
		t.served += len(batch)
		if t.c != nil && w.wl.perConn > 0 && t.served >= w.wl.perConn {
			t.c.close()
			t.c = nil
		}
	}
}

// record tallies a reply completed now and returns the completion time,
// or 0 when it fell outside the measured window.
func (w *worker) record(clk *clock, target int, start, size int64) int64 {
	t := w.t[target]
	ms, end := clk.measureStart.Load(), clk.now()
	if ms == 0 || end < ms {
		t.early++
		return 0
	}
	win := (end - ms) / clk.period
	if win >= int64(len(t.counts)) {
		return 0
	}
	t.counts[win]++
	t.bytes[win] += size
	t.lat[win] = append(t.lat[win], end-start)
	return end
}

// sliceResult is one slice's measurements. The ratio slices hold one
// value per pair of adjacent windows. The absolute values and the host
// fields are diagnostics, written to the results file; host_probe_ns and
// steal tell host drift from code changes.
type sliceResult struct {
	ThroughputRatio []float64 `json:"throughput_ratio"`
	P50Ratio        []float64 `json:"lat_p50_ratio"`
	P90Ratio        []float64 `json:"lat_p90_ratio"`
	CPURatio        []float64 `json:"cpu_per_req_ratio"`
	RSSPeakMB       float64   `json:"rss_peak_mb"`
	RSSReplies      int64     `json:"rss_replies"` // copshttp's replies when RSSPeakMB was read

	ThroughputRPS    float64 `json:"throughput_rps"`
	RefThroughputRPS float64 `json:"ref_throughput_rps"`
	GoodputMBps      float64 `json:"goodput_MBps"`
	LatP50us         float64 `json:"lat_p50_us"`
	LatP90us         float64 `json:"lat_p90_us"`
	CPUusPerReq      float64 `json:"server_cpu_us_per_req"`
	RefCPUusPerReq   float64 `json:"ref_cpu_us_per_req"`
	Requests         int64   `json:"requests"`
	ReadSyscalls     float64 `json:"read_syscalls_per_req"`
	WriteSyscalls    float64 `json:"write_syscalls_per_req"`
	CtxSwitches      float64 `json:"ctx_switches_per_req"`
	SubjectSpill     float64 `json:"subject_spill_frac"`
	ReferenceSpill   float64 `json:"reference_spill_frac"`
	HostProbeNs      int64   `json:"host_probe_ns"`
	StealTicks       int64   `json:"steal_ticks"`
	StealFrac        float64 `json:"steal_frac"`

	attempted, failed int64
	err               error
	rtt               [][]int64 // per worker [start, end] pairs, traced slices only
	t0                time.Time
}

// runSlice starts a fresh copshttp and a fresh reference server, drives
// them alternately for warmup+measure and returns what the measured
// window saw.
func runSlice(cfg config, r *run, measure time.Duration, trace bool) (sliceResult, error) {
	var res sliceResult
	res.HostProbeNs = hostProbe()
	steal0, total0 := hostCPU()
	var srv [targets]*server
	for i, args := range serverArgs(cfg, r) {
		s, err := startServer(args)
		if err != nil {
			for _, prev := range srv[:i] {
				prev.stop()
			}
			return res, err
		}
		srv[i] = s
	}
	defer func() {
		for _, s := range srv {
			s.stop()
		}
	}()

	period := int64(r.wl.period)
	clk := &clock{t0: time.Now(), period: period}
	windows := int(int64(measure) / period)
	windows -= windows % targets
	ws := make([]*worker, conns)
	var wg sync.WaitGroup
	for i := range ws {
		w := newWorker(r.wl, r.doc, r.wl.picker(r.doc, r.seed, i),
			[targets]int{srv[subject].port, srv[reference].port}, windows, trace)
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(clk)
		}()
	}
	// Measurement starts on a subject window boundary; each server's CPU
	// is sampled at every window boundary.
	cycle := targets * period
	ms := (int64(warmup) + clk.now() + cycle - 1) / cycle * cycle
	clk.measureStart.Store(ms)
	var p0, p1 [targets]procSample
	var cpu [targets][]int64
	var hwm []int64 // copshttp's peak RSS at every window boundary
	var perr []error
	for k := 0; k <= windows; k++ {
		time.Sleep(time.Duration(ms + int64(k)*period - clk.now()))
		b, err := peakRSSBytes(srv[subject].pid)
		hwm = append(hwm, b)
		perr = append(perr, err)
		for tg, s := range srv {
			var err error
			switch k {
			case 0:
				p0[tg], err = sampleProc(s.pid)
				cpu[tg] = append(cpu[tg], p0[tg].cpuNs)
			case windows:
				p1[tg], err = sampleProc(s.pid)
				cpu[tg] = append(cpu[tg], p1[tg].cpuNs)
			default:
				var ns int64
				ns, err = cpuNs(s.pid)
				cpu[tg] = append(cpu[tg], ns)
			}
			perr = append(perr, err)
		}
	}
	clk.stop.Store(true)
	wg.Wait()
	steal1, total1 := hostCPU()
	if err := errors.Join(perr...); err != nil {
		return res, fmt.Errorf("read server counters: %w", err)
	}

	var n [targets]int64
	var bytes int64
	var lat [targets][]int64
	for _, w := range ws {
		for tg, t := range w.t {
			for k := 0; k < windows; k++ {
				n[tg] += t.counts[k]
				lat[tg] = append(lat[tg], t.lat[k]...)
			}
		}
		for k := 0; k < windows; k++ {
			bytes += w.t[subject].bytes[k]
		}
		res.attempted += w.attempted
		res.failed += w.failed
		if res.err == nil {
			res.err = w.err
		}
		if trace {
			res.rtt = append(res.rtt, w.rtt)
		}
	}
	res.t0 = clk.t0
	if n[subject] == 0 || n[reference] == 0 {
		return res, fmt.Errorf("a server completed no request in the measured window: %v", res.err)
	}
	for k := 0; k+1 < windows; k += targets {
		var cnt [targets]float64
		var pl [targets][]int64
		for _, w := range ws {
			for tg, t := range w.t {
				cnt[tg] += float64(t.counts[k] + t.counts[k+1])
				pl[tg] = append(append(pl[tg], t.lat[k]...), t.lat[k+1]...)
			}
		}
		if cnt[subject] == 0 || cnt[reference] == 0 {
			continue // a stall ate a whole window; the other pairs still count
		}
		res.ThroughputRatio = append(res.ThroughputRatio, cnt[subject]/cnt[reference])
		for tg := range pl {
			sortNs(pl[tg])
		}
		res.P50Ratio = append(res.P50Ratio, float64(percentile(pl[subject], 0.5))/float64(percentile(pl[reference], 0.5)))
		res.P90Ratio = append(res.P90Ratio, float64(percentile(pl[subject], 0.9))/float64(percentile(pl[reference], 0.9)))
		perReq := func(tg int) float64 { return float64(cpu[tg][k+2]-cpu[tg][k]) / cnt[tg] }
		res.CPURatio = append(res.CPURatio, perReq(subject)/perReq(reference))
	}

	active := float64(int64(windows)*period/targets) / 1e9
	ns := float64(n[subject])
	sortNs(lat[subject])
	res.Requests = n[subject]
	res.ThroughputRPS = ns / active
	res.RefThroughputRPS = float64(n[reference]) / active
	res.GoodputMBps = float64(bytes) / active / 1e6
	res.LatP50us = float64(percentile(lat[subject], 0.50)) / 1e3
	res.LatP90us = float64(percentile(lat[subject], 0.90)) / 1e3
	res.CPUusPerReq = float64(p1[subject].cpuNs-p0[subject].cpuNs) / 1e3 / ns
	res.RefCPUusPerReq = float64(p1[reference].cpuNs-p0[reference].cpuNs) / 1e3 / float64(n[reference])
	// Peak RSS is read at the slice's end or, for a workload that sets
	// rssReplies, at the first window boundary after copshttp has served
	// that many replies since its start.
	served := int64(0)
	for _, w := range ws {
		served += w.t[subject].early
	}
	k := 0
	for ; k < windows && (r.wl.rssReplies == 0 || served < r.wl.rssReplies); k++ {
		for _, w := range ws {
			served += w.t[subject].counts[k]
		}
	}
	res.RSSPeakMB = float64(hwm[k]) / 1e6
	res.RSSReplies = served
	res.ReadSyscalls = float64(p1[subject].syscr-p0[subject].syscr) / ns
	res.WriteSyscalls = float64(p1[subject].syscw-p0[subject].syscw) / ns
	res.CtxSwitches = float64(p1[subject].ctxsw-p0[subject].ctxsw) / ns
	res.SubjectSpill = spill(cpu[subject], reference)
	res.ReferenceSpill = spill(cpu[reference], subject)
	res.StealTicks = steal1 - steal0
	if total1 > total0 {
		res.StealFrac = float64(res.StealTicks) / float64(total1-total0)
	}
	return res, nil
}

func sortNs(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// serverArgs are the command lines of the two targets: copshttp with its
// defaults plus a loopback address and the document root, and refserver.
func serverArgs(cfg config, r *run) [targets][]string {
	return [targets][]string{
		{cfg.bin, "-addr", "127.0.0.1:0", "-root", r.root},
		{cfg.ref, r.root},
	}
}

// spill is the share of a server's CPU, sampled at every window boundary,
// that fell into the windows of target other.
func spill(cpu []int64, other int) float64 {
	var in int64
	for k := other; k+1 < len(cpu); k += targets {
		in += cpu[k+1] - cpu[k]
	}
	total := cpu[len(cpu)-1] - cpu[0]
	if total <= 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// measureSetup times pairs of server starts, from exec to the first
// verified 200, and appends them to r.setup and r.setupRef in seconds.
// Within a pair copshttp and the reference start back to back, in an
// order that alternates from pair to pair, so drift of the host and any
// cost of going second fall on both alike. The run's first pair is
// discarded: it pays for cold page-cache reads of the binaries.
func measureSetup(cfg config, r *run, pairs int) error {
	args := serverArgs(cfg, r)
	for i := 0; i < pairs; i++ {
		var took [targets]float64
		for k := 0; k < targets; k++ {
			tg := (i + k) % targets
			t0 := time.Now()
			srv, err := startServer(args[tg])
			if err != nil {
				return err
			}
			r.attempted++
			err = probe(srv.port, r.doc)
			took[tg] = time.Since(t0).Seconds()
			srv.stop()
			if err != nil {
				r.failed++
				return fmt.Errorf("setup probe: %w", err)
			}
		}
		if r.warmStarts {
			r.setup = append(r.setup, took[subject])
			r.setupRef = append(r.setupRef, took[reference])
		}
		r.warmStarts = true
	}
	return nil
}

// probe fetches and verifies the index page, polling the port every 20 µs
// while it still refuses connections.
func probe(port int, d *docroot) error {
	buf := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := dial(port, buf)
		if err == nil {
			defer c.close()
			if err := c.send(d.index.req); err != nil {
				return err
			}
			return c.get(d, d.index, true)
		}
		if !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// hostProbe runs a fixed ~200 ms piece of work in the driver — 64 MiB of
// memmove and 10k loopback ping-pongs — and returns how long it took. No
// server is running yet, so a slower probe means a slower host.
func hostProbe() int64 {
	start := time.Now()
	src := make([]byte, 8<<20)
	dst := make([]byte, len(src))
	for i := 0; i < 8; i++ {
		copy(dst, src)
	}
	// A failed ping-pong only cuts the probe short; the value is a
	// diagnostic, and a broken loopback fails the slice anyway.
	_ = pingPong(10000)
	return int64(time.Since(start))
}

// pingPong bounces one byte across a loopback TCP connection n times.
func pingPong(n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		s, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer s.Close()
		b := make([]byte, 1)
		for i := 0; i < n; i++ {
			if _, err := s.Read(b); err != nil {
				done <- err
				return
			}
			if _, err := s.Write(b); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c, err := dial(ln.Addr().(*net.TCPAddr).Port, make([]byte, 1))
	if err != nil {
		return err
	}
	b := []byte{1}
	for i := 0; i < n && err == nil; i++ {
		if err = c.send(b); err == nil {
			c.r, c.w = 0, 0
			err = c.fill()
		}
	}
	c.close() // ends the echo goroutine if the loop stopped early
	return errors.Join(err, <-done)
}
