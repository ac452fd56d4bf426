package repro

// TestHotPathAllocs pins the allocation budget of the COPS-HTTP cached-file
// serve path: cache hit, pooled Response, cached date formatting and the
// writev-style head/body send. The budget is the regression fence for the
// buffer-pooling work — if a change reintroduces a per-request copy or a
// fmt call on this path, this test fails before any benchmark has to be
// read.

import (
	"bufio"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/copshttp"
	"repro/internal/events"
	"repro/internal/httpproto"
	"repro/internal/nserver"
	"repro/internal/options"
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
// with a stack iovec in reactor.NonblockWritev). The expected steady
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
		h, bdy, st := rc.Probe(doc)
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
// respcache probe, the reply-sequencer claim, the blocking vectored send
// and the (disabled) access log. The expected steady state is zero; the
// budget of one absorbs the respcache's once-per-second Date rollover and
// a stat per revalidate window on a slow run. A per-reply ID format or
// path clean on this path costs several.
const fastServeAllocBudget = 1

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
	req, _, err := httpproto.ParseRequest([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		if !srv.FastServe(c, req) {
			t.Fatal("FastServe declined a warm document")
		}
	}
	for i := 0; i < 16; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(1000, serve)
	if allocs > fastServeAllocBudget {
		t.Fatalf("FastServe: %.1f allocs/op, budget %d", allocs, fastServeAllocBudget)
	}
	t.Logf("FastServe: %.1f allocs/op (budget %d)", allocs, fastServeAllocBudget)
}
