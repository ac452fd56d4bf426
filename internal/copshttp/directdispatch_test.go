package copshttp

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// ddOptions returns the profiled COPS-HTTP preset. The fast path needs
// no option: the preset's file cache brings the rendered-response cache
// and its hook.
func ddOptions() *options.Options {
	o := options.COPSHTTP()
	o.Profiling = true
	return &o
}

func TestDirectDispatchServesHotGET(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root, Options: ddOptions()})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for i := 0; i < 8; i++ {
		status, headers, body := get(t, conn, r, "GET", "/about.txt", "")
		if status != 200 || string(body) != "about text" {
			t.Fatalf("iteration %d: %d %q", i, status, body)
		}
		if headers["last-modified"] == "" || headers["date"] == "" {
			t.Fatalf("iteration %d: missing Last-Modified/Date: %v", i, headers)
		}
	}
	// The first request misses (and renders) the response cache; the
	// repeats must be served run-to-completion by the goroutine that
	// read them.
	snap := s.Framework().Profile().Snapshot()
	if snap.DirectDispatched == 0 {
		t.Fatalf("DirectDispatched = 0 after hot repeats (snapshot %+v)", snap)
	}
	if rs := s.RespCache().Stats(); rs.Hits == 0 {
		t.Fatalf("respcache hits = 0 after hot repeats (stats %+v)", rs)
	}
}

func TestDirectDispatchPipelinedOrdering(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root, Options: ddOptions()})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	// Warm the rendered cache for the hot document.
	if status, _, _ := get(t, conn, r, "GET", "/about.txt", ""); status != 200 {
		t.Fatalf("warmup: %d", status)
	}
	// A pipelined window of hot hits (fast-path eligible) with a
	// cold document, a Range request and a miss in the middle (all
	// declined to the queued path, with its async file hops): the
	// replies must come back in request order, although the hits
	// after a decline could be answered at once — the sequencer makes
	// the fast path decline while an earlier claim is outstanding.
	type want struct {
		path, extra string
		status      int
		body        string
	}
	window := []want{
		{"/about.txt", "", 200, "about text"},
		{"/about.txt", "", 200, "about text"},
		{"/portal/p1.html", "", 200, strings.Repeat("P", 2048)},
		{"/about.txt", "", 200, "about text"},
		{"/about.txt", "Range: bytes=0-4\r\n", 206, "about"},
		{"/about.txt", "", 200, "about text"},
		{"/nosuch.txt", "", 404, ""},
		{"/about.txt", "", 200, "about text"},
	}
	var req strings.Builder
	for _, w := range window {
		fmt.Fprintf(&req, "GET %s HTTP/1.1\r\nHost: test\r\n%s\r\n", w.path, w.extra)
	}
	// The window's leading hits run inline unless the previous
	// window's queued tail still owns the connection's drain, so a
	// few rounds guarantee some inline serves.
	for round := 0; round < 20; round++ {
		if _, err := conn.Write([]byte(req.String())); err != nil {
			t.Fatal(err)
		}
		for i, w := range window {
			status, _, body, err := readResponse(r, false)
			if err != nil {
				t.Fatalf("round %d reply %d (%s): %v", round, i, w.path, err)
			}
			if status != w.status {
				t.Fatalf("round %d reply %d (%s): status %d, want %d", round, i, w.path, status, w.status)
			}
			if w.body != "" && string(body) != w.body {
				t.Fatalf("round %d reply %d (%s): wrong body %.20q", round, i, w.path, body)
			}
		}
		if s.Framework().Profile().Snapshot().DirectDispatched > 0 && round >= 2 {
			return
		}
	}
	t.Fatal("DirectDispatched = 0: no hit of the pipelined windows was served inline")
}

// TestDirectDispatchMutationInvalidates is the staleness bound: a file
// mutated between two GETs on one keep-alive connection must yield fresh
// bytes and a fresh Last-Modified on the second GET once the revalidate
// window has passed — the rendered entry and the file-cache bytes both
// drop when the stat hop sees the new (modTime, size).
func TestDirectDispatchMutationInvalidates(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root, Options: ddOptions()})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, h1, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" {
		t.Fatalf("first GET: %d %q", status, body)
	}
	full := filepath.Join(root, "about.txt")
	if err := os.WriteFile(full, []byte("fresh content"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Force a distinct mtime even on coarse-granularity filesystems.
	mt := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(full, mt, mt); err != nil {
		t.Fatal(err)
	}
	// Let the rendered entry outlive its revalidate window so the next
	// request is forced through the stat hop.
	time.Sleep(250 * time.Millisecond)
	status, h2, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "fresh content" {
		t.Fatalf("post-mutation GET: %d %q", status, body)
	}
	if h1["last-modified"] == h2["last-modified"] {
		t.Fatalf("Last-Modified did not change across mutation: %q", h2["last-modified"])
	}
	if inv := s.RespCache().Stats().Invalidations; inv == 0 {
		t.Fatalf("no respcache invalidation recorded (stats %+v)", s.RespCache().Stats())
	}
}

// TestDirectDispatchWireShape compares the fast path's replies against a
// queued-only server's for the same request mix: statuses, bodies and the
// contract headers must be identical (Date may differ by the second it
// was rendered in). A decode delay keeps every request of the plain
// server on the queued path.
func TestDirectDispatchWireShape(t *testing.T) {
	root := buildDocRoot(t)
	plain := startHTTP(t, Config{DocRoot: root, Options: ddOptions(), DecodeDelay: time.Microsecond})
	fast := startHTTP(t, Config{DocRoot: root, Options: ddOptions()})

	type reply struct {
		status  int
		headers map[string]string
		body    string
	}
	collect := func(s *Server) []reply {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		var out []reply
		reqs := []struct{ method, path, extra string }{
			{"GET", "/about.txt", ""},
			{"GET", "/about.txt", ""}, // hot repeat: fast path on the fast server
			{"HEAD", "/about.txt", ""},
			{"GET", "/about.txt", "Range: bytes=0-4\r\n"},
			{"GET", "/nosuch.txt", ""},
			{"GET", "/about.txt", ""},
		}
		for _, q := range reqs {
			status, headers, body := get(t, conn, r, q.method, q.path, q.extra)
			out = append(out, reply{status, headers, string(body)})
		}
		return out
	}
	want, got := collect(plain), collect(fast)
	if plain.Framework().Profile().Snapshot().DirectDispatched != 0 || fast.Framework().Profile().Snapshot().DirectDispatched == 0 {
		t.Fatal("the comparison needs a queued-only server and a fast-path one")
	}
	for i := range want {
		if got[i].status != want[i].status || got[i].body != want[i].body {
			t.Fatalf("reply %d: got %d %q, want %d %q", i, got[i].status, got[i].body, want[i].status, want[i].body)
		}
		for _, h := range []string{"content-length", "content-type", "last-modified", "accept-ranges", "content-range", "connection"} {
			if got[i].headers[h] != want[i].headers[h] {
				t.Fatalf("reply %d header %s: got %q, want %q", i, h, got[i].headers[h], want[i].headers[h])
			}
		}
	}
}
