package copshttp

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// readRawReply reads one reply off r as raw bytes, head and body, with
// the Date value blanked: everything else must match byte for byte.
func readRawReply(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	var raw bytes.Buffer
	length := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading a reply head: %v (so far %q)", err, raw.String())
		}
		if v, ok := strings.CutPrefix(line, "Date: "); ok {
			line = "Date: " + strings.Repeat("-", len(strings.TrimRight(v, "\r\n"))) + "\r\n"
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			length, _ = strconv.Atoi(strings.TrimSpace(v))
		}
		raw.WriteString(line)
		if line == "\r\n" {
			break
		}
	}
	if _, err := io.CopyN(&raw, r, int64(length)); err != nil {
		t.Fatalf("reading a %d-byte reply body: %v", length, err)
	}
	return raw.Bytes()
}

// TestRecycledRequestsInPipelinedWindow sends two pipelined windows that
// mix fast-served requests — whose Requests go back to the parser's pool
// — with requests the fast path declines. A fast-served request with six
// header fields, more than the inline storage holds, is followed by one
// with a single field, so a recycled Request that kept its spilled fields
// would answer the second with the first's headers; an If-Modified-Since
// and a Range request between fast-served ones take the queued path and
// are never recycled. Each reply must equal, byte for byte up to the
// Date value, the reply to the same request sent alone.
func TestRecycledRequestsInPipelinedWindow(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t), Options: ddOptions()})
	const one = "Host: test\r\n"
	const six = one + "User-Agent: recycle-test\r\nAccept: */*\r\nAccept-Language: en\r\n" +
		"Accept-Encoding: identity\r\nCookie: session=1\r\n"

	// Warm both documents, and learn about.txt's Last-Modified for the
	// conditional request.
	warm, wr := dialWire(t, s)
	_, headers, _ := get(t, warm, wr, "GET", "/about.txt", "")
	if status, _, _ := get(t, warm, wr, "GET", "/index.html", ""); status != 200 {
		t.Fatalf("warm-up GET /index.html: %d", status)
	}
	ims := "If-Modified-Since: " + headers["last-modified"] + "\r\n"
	requests := map[string]string{
		"six":   "GET /about.txt HTTP/1.1\r\n" + six + "\r\n",
		"one":   "GET /index.html HTTP/1.1\r\n" + one + "\r\n",
		"ims":   "GET /about.txt HTTP/1.1\r\n" + one + ims + "\r\n",
		"range": "GET /about.txt HTTP/1.1\r\n" + one + "Range: bytes=0-4\r\n\r\n",
		"about": "GET /about.txt HTTP/1.1\r\n" + one + "\r\n",
	}
	want := make(map[string][]byte)
	for name, req := range requests {
		if _, err := warm.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		want[name] = readRawReply(t, wr)
	}
	if !bytes.HasPrefix(want["ims"], []byte("HTTP/1.1 304 ")) || !bytes.HasPrefix(want["range"], []byte("HTTP/1.1 206 ")) {
		t.Fatalf("reference replies: conditional %q, range %q", want["ims"], want["range"])
	}

	// Of the reference requests, the three plain GETs were served inline.
	const before = 3
	awaitDirectDispatched(t, s, before)
	conn, r := dialWire(t, s)
	for _, window := range [][]string{
		{"six", "one", "ims", "about"},
		{"one", "six", "range", "one"},
	} {
		var wire strings.Builder
		for _, name := range window {
			wire.WriteString(requests[name])
		}
		if _, err := conn.Write([]byte(wire.String())); err != nil {
			t.Fatal(err)
		}
		for i, name := range window {
			if got := readRawReply(t, r); !bytes.Equal(got, want[name]) {
				t.Fatalf("window %q, reply %d (%s):\n got %q\nwant %q", window, i, name, got, want[name])
			}
		}
	}
	// The two requests ahead of each declined one are served inline; the
	// one behind it may go either way. A fast serve is counted just after
	// its reply is written, so the count may trail the replies.
	deadline := time.Now().Add(2 * time.Second)
	for directDispatched(s)-before < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := directDispatched(s) - before; n < 4 {
		t.Fatalf("%d requests served inline, want at least 4", n)
	}
}

// TestMemoServesAfterEviction evicts the file-cache entry behind a
// document one keep-alive connection keeps re-fetching, after rewriting
// the file to the same size and modification time — bytes no stat can
// tell apart. The eviction removes the rendered entry the connection
// memoized, so its next GET is looked up again and answered with the
// new bytes, instead of the evicted ones the memo would otherwise keep
// alive and serve.
func TestMemoServesAfterEviction(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"hot.txt", "a.txt", "b.txt"} {
		if err := os.WriteFile(filepath.Join(root, name), bytes.Repeat([]byte(name[:1]), 1000), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	o := ddOptions()
	o.CacheCapacity = 2500 // room for two of the three files, in one shard
	s := startHTTP(t, Config{DocRoot: root, Options: o})
	conn, r := hotConn(t, s, "/hot.txt", strings.Repeat("h", 1000))
	before := directDispatched(s)
	for i := 0; i < 3; i++ {
		if status, _, _ := get(t, conn, r, "GET", "/hot.txt", ""); status != 200 {
			t.Fatalf("hot GET %d: %d", i, status)
		}
	}
	awaitDirectDispatched(t, s, before+3)

	full := filepath.Join(root, "hot.txt")
	info, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	fresh := strings.Repeat("H", 1000)
	if err := os.WriteFile(full, []byte(fresh), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(full, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	// Fast-path hits never touch the file cache, so hot.txt is its least
	// recently used entry: two more documents evict it.
	other, or := dialWire(t, s)
	for _, p := range []string{"/a.txt", "/b.txt"} {
		if status, _, _ := get(t, other, or, "GET", p, ""); status != 200 {
			t.Fatalf("GET %s: %d", p, status)
		}
	}
	if s.Framework().Cache().Contains(full) {
		t.Fatal("the hot document was not evicted")
	}
	for i := 0; i < 2; i++ {
		if status, _, body := get(t, conn, r, "GET", "/hot.txt", ""); status != 200 || string(body) != fresh {
			t.Fatalf("GET %d after the eviction: %d %.8q", i, status, body)
		}
	}
}
