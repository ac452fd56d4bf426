package repro

// TestHotPathAllocs pins the allocation budget of the COPS-HTTP cached-file
// serve path: cache hit, pooled Response, cached date formatting and the
// writev-style head/body send. The budget is the regression fence for the
// buffer-pooling work — if a change reintroduces a per-request copy or a
// fmt call on this path, this test fails before any benchmark has to be
// read.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/copshttp"
	"repro/internal/events"
	"repro/internal/httpproto"
	"repro/internal/nserver"
	"repro/internal/options"
	"repro/internal/profiling"
	"repro/internal/respcache"
)

// hotPathAllocBudget is the ceiling for one cached-file serve iteration.
// The expected steady state is 1-2 allocations: the net.Buffers slice
// header escaping into WriteTo, plus occasional sync.Pool refills.
const hotPathAllocBudget = 4

func TestHotPathAllocs(t *testing.T) {
	const doc = "/docs/dir1/class2_5.html"
	fc, err := cache.New(20<<20, options.LRU, cache.Config{Shards: cache.DefaultShards(20 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	fc.Put(doc, make([]byte, 16<<10))
	mtime := time.Now().Add(-time.Hour)

	serve := func() {
		data, ok := fc.Get(doc)
		if !ok {
			t.Fatal("cache lost the hot document")
		}
		resp := httpproto.AcquireResponse()
		resp.Status = 200
		resp.Headers.Set("Content-Type", httpproto.MimeType(doc))
		resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDateCached(mtime))
		resp.Body = data
		if _, err := httpproto.WriteResponse(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
		httpproto.ReleaseResponse(resp)
	}
	// Warm the pools (buffer, Response, date caches) before measuring.
	for i := 0; i < 16; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(1000, serve)
	if allocs > hotPathAllocBudget {
		t.Fatalf("cached-file serve path: %.1f allocs/op, budget %d", allocs, hotPathAllocBudget)
	}
	t.Logf("cached-file serve path: %.1f allocs/op (budget %d)", allocs, hotPathAllocBudget)
}

// directDispatchAllocBudget is the ceiling for one rendered-response
// serve iteration — the work the run-to-completion fast path repeats per
// hot request once the head is cached: a respcache lookup plus handing
// the two shared segments to the vectored send (which the live path does
// with a pooled iovec in its non-blocking writev). The expected steady
// state is zero allocations; the budget of one absorbs the respcache's
// once-per-second Date rollover copy. The queued path above re-renders
// the head every time and budgets 4; that gap is the point of the
// rendered-response cache.
const directDispatchAllocBudget = 1

func TestHotPathAllocsDirectDispatch(t *testing.T) {
	const doc = "/docs/dir1/class2_5.html"
	body := make([]byte, 16<<10)
	mtime := time.Now().Add(-time.Hour)

	// Render the head once, exactly as the fast path's miss leg does,
	// and publish it to the rendered-response cache.
	resp := httpproto.AcquireResponse()
	resp.Status = 200
	resp.Headers.Set("Content-Type", httpproto.MimeType(doc))
	resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDateCached(mtime))
	resp.Body = body
	head := httpproto.AppendResponseHead(nil, resp)
	httpproto.ReleaseResponse(resp)

	rc := respcache.New(1, time.Hour)
	rc.Store(doc, head, body, mtime, int64(len(body)))

	serve := func() {
		h, bdy, st := rc.Probe(doc, new(respcache.Ref), time.Now())
		if st != respcache.Hit {
			t.Fatal("respcache lost the hot document")
		}
		// Two segment writes stand in for the one writev the live path
		// issues; the iovec assembly there is allocation-free too.
		if _, err := io.Discard.Write(h); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Discard.Write(bdy); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the cache's same-second date fast path before measuring.
	for i := 0; i < 16; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(1000, serve)
	if allocs > directDispatchAllocBudget {
		t.Fatalf("rendered-response serve path: %.1f allocs/op, budget %d", allocs, directDispatchAllocBudget)
	}
	t.Logf("rendered-response serve path: %.1f allocs/op (budget %d)", allocs, directDispatchAllocBudget)
}

// fastServeAllocBudget is the ceiling for one call of the real FastPath
// hook, copshttp's FastServe, serving a warm document on a live
// keep-alive connection: the request shape checks, the path memo, the
// respcache probe through the memo's Ref, the blocking vectored send, the
// (disabled) access log and the request's return to its pool. It measures
// zero: the respcache's once-per-second Date rollover and a stat per
// revalidate window are a few allocations per thousand calls, under the
// per-call average's resolution. A per-reply ID format or path clean on
// this path costs several: without the per-connection path memo
// FastServe measures 3.0 allocs/op.
const fastServeAllocBudget = 0

func TestHotPathAllocsFastServe(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "hot.html"), make([]byte, 1<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	// The priority hook sees every attached connection, in attach order: it
	// hands the test the server side of its clients.
	conns := make(chan *nserver.Conn, 2)
	srv, err := copshttp.New(copshttp.Config{
		DocRoot:  root,
		Priority: func(c *nserver.Conn) events.Priority { conns <- c; return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	dial := func() (net.Conn, *nserver.Conn) {
		client, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return client, <-conns
	}

	// A first client's GET takes the queued path and renders the cached
	// reply.
	const wire = "GET /hot.html HTTP/1.1\r\nHost: bench\r\n\r\n"
	warm, _ := dial()
	if _, err := warm.Write([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(warm)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	if _, err := br.Discard(1 << 10); err != nil {
		t.Fatal(err)
	}
	// The hook then serves a second, idle connection whose reader
	// goroutine stays blocked in Read: the test owns its pipeline exactly
	// as a drain would, and the replies are drained and dropped.
	client, c := dial()
	go func() { _, _ = io.Copy(io.Discard, client) }()
	// FastServe recycles each request it serves, so every call gets its
	// own, decoded before the measurement: 16 warm-up calls, and the one
	// AllocsPerRun adds to its 1000.
	reqs := make([]*httpproto.Request, 16+1001)
	for i := range reqs {
		if reqs[i], _, err = httpproto.ParseRequest([]byte(wire)); err != nil {
			t.Fatal(err)
		}
	}
	serve := func() {
		req := reqs[0]
		reqs = reqs[1:]
		if !srv.FastServe(c, req) {
			t.Fatal("FastServe declined a warm document")
		}
	}
	for i := 0; i < 16; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(1000, serve)
	budget := fastServeAllocBudget
	if raceEnabled {
		// Pools drop values at random under -race, nonblockWritev's iovec
		// pool among them, so some runs measure 1.0 with no allocation of
		// FastServe's own.
		budget = 1
	}
	if allocs > float64(budget) {
		t.Fatalf("FastServe: %.1f allocs/op, budget %d", allocs, budget)
	}
	t.Logf("FastServe: %.1f allocs/op (budget %d)", allocs, budget)
}

// TestHotPathAllocsPipelinedWindow pins the allocations of a pipelined
// window of 16 hits served through the real drain on a live connection:
// the reader goroutine's read, the decode loop, FastServe per request and
// the window's one gathered write. The decoder allocates the head string
// per request; everything else must not: FastServe recycles each request
// it serves, the replies' heads wait by reference behind the window's
// reserved position, and the queue and the gathered iovec are reused
// window to window. A window
// therefore costs exactly its 16 head strings, and a per-reply allocation
// anywhere else — an unrecycled request included — adds 16.
func TestHotPathAllocsPipelinedWindow(t *testing.T) {
	const window = 16
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "hot.html"), make([]byte, 1<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options.COPSHTTP()
	opts.Profiling = true
	srv, err := copshttp.New(copshttp.Config{DocRoot: root, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	client, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const wire = "GET /hot.html HTTP/1.1\r\nHost: bench\r\n\r\n"
	// The first GET takes the queued path and renders the cached reply;
	// its length is every later reply's (the Date field is fixed-width).
	if _, err := client.Write([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(client)
	replyLen := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		replyLen += len(line)
		if line == "\r\n" {
			break
		}
	}
	if _, err := br.Discard(1 << 10); err != nil {
		t.Fatal(err)
	}
	replyLen += 1 << 10

	burst := []byte(strings.Repeat(wire, window))
	replies := make([]byte, window*replyLen)
	serve := func() {
		if _, err := client.Write(burst); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(br, replies); err != nil {
			t.Fatal(err)
		}
	}
	// The counters move just after the bytes leave, so a reader can get
	// ahead of them: settle waits until the counters the assertions read
	// have caught up. A request is counted served before its reply's
	// write, and a write only once writev returns, so waiting on the
	// served count alone can miss the last write.
	fw := srv.Framework()
	settle := func(done func(profiling.Snapshot) bool) profiling.Snapshot {
		deadline := time.Now().Add(5 * time.Second)
		for {
			snap := fw.Profile().Snapshot()
			if done(snap) || time.Now().After(deadline) {
				return snap
			}
			time.Sleep(time.Millisecond)
		}
	}
	first := settle(func(s profiling.Snapshot) bool { return s.ReplyWrites >= 1 })
	for i := 0; i < 16; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(200, serve)
	const windows = 16 + 201
	after := settle(func(s profiling.Snapshot) bool {
		return s.DirectDispatched >= windows*window && s.ReplyWrites >= first.ReplyWrites+windows
	})
	if after.DirectDispatched != windows*window {
		t.Fatalf("%d of %d requests served inline: a window left the fast path",
			after.DirectDispatched, windows*window)
	}
	// A window the socket cannot take whole (its send buffer still small,
	// or holding the last window's unacknowledged bytes) parks the rest for
	// the write pump: one more write, and at least one parked reply
	// flushed. Every other window is one gathered write.
	writes := after.ReplyWrites - first.ReplyWrites
	if parked := fw.Profile().FlushSnapshot().Count; writes < windows || writes > windows+parked {
		t.Fatalf("%d reply writes for %d windows (%d parked replies), want one per window", writes, windows, parked)
	}

	req := []byte(wire)
	decode := testing.AllocsPerRun(1000, func() {
		r, _, err := httpproto.ParseRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		httpproto.ReleaseRequest(r)
	})
	if raceEnabled {
		t.Skipf("pipelined window: %.0f allocs under -race, where pools drop values at random", allocs)
	}
	if want := window * decode; allocs > want {
		t.Fatalf("pipelined window: %.0f allocs, want the head strings' %.0f (16 x %.0f)", allocs, want, decode)
	}
	t.Logf("pipelined window: %.0f allocs (recycled decoder: 16 x %.0f)", allocs, decode)
}

// queuedEchoAllocBudget is the ceiling for one line-echo round trip on
// the queued path: the reader goroutine's PollReady routed into the
// shard's Event Processor, the drain's decode, Handle and the reply's
// encode and send — what every request pays without a FastPath hook (FTP,
// and HTTP while the O9 gate is engaged). It measures 4.00 at one and two
// shards: the routed event (its handler and Ready in one queue entry),
// the decoded line, the line boxed into Reply's argument and the encoded
// reply. The client reads with ReadSlice, so none of its own
// allocations count.
const queuedEchoAllocBudget = 4

// TestHotPathAllocsQueuedEcho pins the allocations of one round trip over
// the queued path on a live loopback connection, at one and two shards.
func TestHotPathAllocsQueuedEcho(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := nserver.New(nserver.Config{
				Options: options.Options{
					DispatcherThreads:  1,
					SeparateThreadPool: true,
					EventThreads:       2,
					Codec:              true,
					Shards:             shards,
				},
				App: nserver.AppFuncs{Request: func(c *nserver.Conn, req any) {
					_ = c.Reply(req.(string))
				}},
				Codec: benchLineCodec{},
			})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(ln); err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			line := []byte("x\n")
			br := bufio.NewReader(client)
			roundTrip := func() {
				if _, err := client.Write(line); err != nil {
					t.Fatal(err)
				}
				if _, err := br.ReadSlice('\n'); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				roundTrip()
			}
			allocs := testing.AllocsPerRun(1000, roundTrip)
			if raceEnabled {
				t.Skipf("queued echo: %.2f allocs under -race, where pools drop values at random", allocs)
			}
			if allocs > queuedEchoAllocBudget {
				t.Fatalf("queued echo: %.2f allocs per round trip, budget %d", allocs, queuedEchoAllocBudget)
			}
			t.Logf("queued echo: %.2f allocs per round trip (budget %d)", allocs, queuedEchoAllocBudget)
		})
	}
}
