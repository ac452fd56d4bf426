package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	specweb "repro/internal/workload"
)

// A workload is one traffic mix: the documents it serves and how the
// driver's connections request them. Every workload is a closed loop —
// each connection waits for its replies before sending again — because
// sleeps on this class of host overshoot by about a millisecond, which
// would make an open-loop schedule measure the generator.
type workload struct {
	name string
	// add generates the workload's documents into d.
	add func(d *docroot, rng *rand.Rand)
	// picker returns the request stream of one connection.
	picker func(d *docroot, seed int64, conn int) func() *file
	// window is how many requests each write carries (pipelining depth).
	window int
	// perConn is how many requests a connection makes before the client
	// closes it and reconnects; 0 keeps it open.
	perConn int
	// verifyEvery checks the body of every n-th response byte for byte;
	// status and length are checked on every response.
	verifyEvery int
	// bufSize is the client read buffer.
	bufSize int
	// period is how long the client drives one server before switching
	// to the other: short, so both halves of a pair see the same host,
	// yet long enough to hold many replies. It is no multiple of a
	// server-side timer (the rendered-response cache's 100 ms revalidate
	// window, the 1 s Date rollover), so such a timer fires at a different
	// phase of each window instead of always at its start.
	period time.Duration
	// rssReplies, when set, is how many replies copshttp serves, warm-up
	// included, before its peak RSS is read, instead of at the slice's
	// end: large_stream's heap grows with every reply for the whole slice,
	// so a peak read at a fixed time would follow the host's speed. It is
	// under half of what a slice gets on the slowest host seen.
	rssReplies int64
}

// conns is the number of client connections of every workload: the
// host has two CPUs, and more closed-loop clients than CPUs only queue.
const conns = 2

// largeSize is above copshttp's default 1 MiB large-file threshold, so the
// file streams by sendfile and skips both caches.
const largeSize = 16 << 20

// specwebDirs gives the paper's SpecWeb99-like file set 288 files and
// about 41 MB, twice the default 20 MiB file cache, so LRU evicts.
const specwebDirs = 8

// The workloads; BENCHMARK.json and bench/README.md give why each was
// chosen.
var workloads = []*workload{
	// Sequential keep-alive GETs of one 1 KiB file: per-request cost
	// (wake, read, decode, lookup, render, writev) dominates.
	{
		name:        "hot_get",
		add:         addOne("/hot/", ".html", 1<<10),
		picker:      same,
		window:      1,
		verifyEvery: 1,
		bufSize:     64 << 10,
		period:      90 * time.Millisecond,
	},
	// The hot_get file in pipelined windows of 16: wake and syscall cost
	// is shared, so decode, render and sequencing dominate.
	{
		name:        "pipelined_get",
		add:         addOne("/hot/", ".html", 1<<10),
		picker:      same,
		window:      16,
		verifyEvery: 1,
		bufSize:     64 << 10,
		period:      90 * time.Millisecond,
	},
	// The paper's workload: the SpecWeb99-like set, twice the file cache,
	// 5 GETs per connection; the only accept, teardown and cache-miss
	// load.
	{
		name:        "specweb_churn",
		add:         addSpecweb,
		picker:      specwebPicker,
		window:      1,
		perConn:     specweb.RequestsPerConn,
		verifyEvery: 1,
		bufSize:     64 << 10,
		period:      90 * time.Millisecond,
	},
	// Sequential keep-alive GETs of a 16 MiB file, above the large-file
	// threshold: sendfile streaming, bound by bytes moved.
	{
		name:        "large_stream",
		add:         addOne("/large/", ".bin", largeSize),
		picker:      same,
		window:      1,
		verifyEvery: 16,
		bufSize:     256 << 10,
		// Replies take 3-6 ms; a longer window keeps enough of them.
		period:     230 * time.Millisecond,
		rssReplies: 200,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	if name == "" {
		return nil, fmt.Errorf("-workload is required: one of %s", workloadNames())
	}
	return nil, fmt.Errorf("unknown workload %q: want one of %s", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// addOne adds a single file under a seeded name.
func addOne(dir, ext string, size int64) func(*docroot, *rand.Rand) {
	return func(d *docroot, rng *rand.Rand) {
		d.add(fmt.Sprintf("%s%08x%s", dir, rng.Uint32(), ext), size, rng)
	}
}

// same requests the workload's one file over and over.
func same(d *docroot, _ int64, _ int) func() *file {
	f := d.files[len(d.files)-1]
	return func() *file { return f }
}

func addSpecweb(d *docroot, rng *rand.Rand) {
	for _, f := range specweb.GenerateFileSet(specwebDirs).Files {
		d.add(f.Path, f.Size, rng)
	}
}

// specwebPicker draws the SpecWeb99 access mix: Zipf-popular directories,
// the 35/50/14/1 size-class mix, uniform within a class.
func specwebPicker(d *docroot, seed int64, conn int) func() *file {
	s := specweb.NewSampler(specweb.GenerateFileSet(specwebDirs), seed*1000+int64(conn))
	return func() *file { return d.byPath[s.Pick().Path] }
}
