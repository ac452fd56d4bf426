package copshttp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpproto"
	"repro/internal/options"
)

// largePattern builds a deterministic non-repeating byte pattern so a
// mis-sliced range or a swapped chunk cannot pass the equality checks.
func largePattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>8 + 13)
	}
	return data
}

// startLargeHTTP serves a docroot with a small streaming threshold and a
// big patterned file, with profiling on so the streaming counters tick.
func startLargeHTTP(t *testing.T, threshold int64, fileSize int) (*Server, []byte) {
	t.Helper()
	root := buildDocRoot(t)
	data := largePattern(fileSize)
	if err := os.WriteFile(filepath.Join(root, "big.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options.COPSHTTP().WithLargeFiles(threshold)
	opts.Profiling = true
	s := startHTTP(t, Config{DocRoot: root, Options: &opts})
	return s, data
}

func TestLargeFileStreamed(t *testing.T) {
	// 256 KiB + 3: odd size so the last chunk is partial.
	s, data := startLargeHTTP(t, 64<<10, 256<<10+3)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	status, headers, body := get(t, conn, r, "GET", "/big.bin", "")
	if status != 200 {
		t.Fatalf("GET big.bin: %d", status)
	}
	if headers["content-length"] != strconv.Itoa(len(data)) {
		t.Errorf("content-length = %q, want %d", headers["content-length"], len(data))
	}
	if headers["accept-ranges"] != "bytes" {
		t.Errorf("accept-ranges = %q", headers["accept-ranges"])
	}
	if !bytes.Equal(body, data) {
		t.Error("streamed body differs from the file")
	}

	// The connection stays persistent and clean after a streamed reply.
	status, _, small := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(small) != "about text" {
		t.Errorf("request after streamed reply: %d %q", status, small)
	}

	snap := s.Framework().Profile().Snapshot()
	if snap.BytesStreamed != uint64(len(data)) {
		t.Errorf("BytesStreamed = %d, want %d", snap.BytesStreamed, len(data))
	}
	if snap.SendfileChunks+snap.FallbackChunks == 0 {
		t.Error("no streaming chunks counted")
	}

	// Streamed files must never enter the cache.
	if c := s.Framework().Cache(); c != nil {
		if _, ok := c.Get(filepath.Join(s.docroot, "big.bin")); ok {
			t.Error("large file was admitted to the cache")
		}
	}
}

// TestBufferedFileAboveOutboundCap: with streaming off (threshold 0, the
// `-large-file-threshold 0` setting) a 16 MiB file is one in-memory reply,
// twice the per-connection outbound cap. The socket takes part of it and
// the rest parks; it must arrive whole, on a connection that keeps
// serving, rather than end in EOF partway through the body.
func TestBufferedFileAboveOutboundCap(t *testing.T) {
	const size = 16 << 20
	root := buildDocRoot(t)
	data := largePattern(size)
	if err := os.WriteFile(filepath.Join(root, "big.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options.COPSHTTP().WithLargeFiles(0)
	opts.CacheCapacity = 64 << 20
	opts.Profiling = true
	s := startHTTP(t, Config{DocRoot: root, Options: &opts})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		status, _, body := get(t, conn, r, "GET", "/big.bin", "")
		if status != 200 || !bytes.Equal(body, data) {
			t.Fatalf("GET %d: status %d with %d body bytes, want 200 with the %d-byte file", i, status, len(body), size)
		}
	}
	snap := s.Framework().Profile().Snapshot()
	if snap.BytesStreamed != 0 {
		t.Errorf("BytesStreamed = %d, want 0 with streaming off", snap.BytesStreamed)
	}
	if snap.OutboundShed != 0 {
		t.Errorf("OutboundShed = %d, want 0", snap.OutboundShed)
	}
}

// TestPipelinedWindowOfCachedReplies: a client pipelines 12 GETs of a
// 960 KiB cached file, 11.25 MiB of replies in one window, above the
// 8 MiB outbound cap, and reads them as fast as it can. The kernel takes
// part of the window before the rest parks, so the window must arrive
// whole, not be shed as an outbound overflow, with and without a write
// bound (a write bound caps the kernel's share with TCP_NOTSENT_LOWAT).
func TestPipelinedWindowOfCachedReplies(t *testing.T) {
	const size, window = 960 << 10, 12
	root := buildDocRoot(t)
	data := largePattern(size)
	if err := os.WriteFile(filepath.Join(root, "big.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, wt := range []time.Duration{0, 5 * time.Second} {
		opts := options.COPSHTTP().WithLargeFiles(1 << 20)
		opts.WriteTimeout = wt
		opts.Profiling = true
		s := startHTTP(t, Config{DocRoot: root, Options: &opts})
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		r := bufio.NewReader(conn)
		get(t, conn, r, "GET", "/big.bin", "") // fills the cache
		req := strings.Repeat("GET /big.bin HTTP/1.1\r\nHost: test\r\n\r\n", window)
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < window; i++ {
			status, _, body, err := readResponse(r, false)
			if err != nil || status != 200 || !bytes.Equal(body, data) {
				t.Fatalf("WriteTimeout %v: reply %d of %d: status %d, %d body bytes (%v)", wt, i+1, window, status, len(body), err)
			}
		}
		if shed := s.Framework().Profile().Snapshot().OutboundShed; shed != 0 {
			t.Fatalf("WriteTimeout %v: OutboundShed = %d, want 0", wt, shed)
		}
	}
}

func TestLargeFileHead(t *testing.T) {
	s, data := startLargeHTTP(t, 64<<10, 128<<10)
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)

	status, headers, _ := get(t, conn, r, "HEAD", "/big.bin", "")
	if status != 200 {
		t.Fatalf("HEAD big.bin: %d", status)
	}
	if headers["content-length"] != strconv.Itoa(len(data)) {
		t.Errorf("content-length = %q, want %d", headers["content-length"], len(data))
	}
	// No body bytes may be pending: the next reply must parse cleanly.
	status, _, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" {
		t.Errorf("request after HEAD: %d %q", status, body)
	}
	if streamed := s.Framework().Profile().Snapshot().BytesStreamed; streamed != 0 {
		t.Errorf("HEAD streamed %d body bytes", streamed)
	}
}

// TestRangeMatrix drives the Range interaction matrix over both serve
// paths: the buffered (cache) path for a small file and the streaming
// path for a file above the threshold.
func TestRangeMatrix(t *testing.T) {
	const size = 128 << 10
	s, data := startLargeHTTP(t, 64<<10, size)
	small := []byte("about text") // 10 bytes, served buffered

	for _, tc := range []struct {
		name, path, hdr string
		wantStatus      int
		wantRange       string // expected Content-Range
		wantBody        []byte
	}{
		{"small first bytes", "/about.txt", "Range: bytes=0-4\r\n", 206, "bytes 0-4/10", small[:5]},
		{"small middle", "/about.txt", "Range: bytes=2-5\r\n", 206, "bytes 2-5/10", small[2:6]},
		{"small open ended", "/about.txt", "Range: bytes=6-\r\n", 206, "bytes 6-9/10", small[6:]},
		{"small suffix", "/about.txt", "Range: bytes=-4\r\n", 206, "bytes 6-9/10", small[6:]},
		{"small clamped", "/about.txt", "Range: bytes=5-999\r\n", 206, "bytes 5-9/10", small[5:]},
		{"small unsatisfiable", "/about.txt", "Range: bytes=10-\r\n", 416, "bytes */10", nil},
		{"small multi ignored", "/about.txt", "Range: bytes=0-1,3-4\r\n", 200, "", small},
		{"small foreign unit", "/about.txt", "Range: lines=0-1\r\n", 200, "", small},
		{"small malformed", "/about.txt", "Range: bytes=abc\r\n", 200, "", small},
		{"large middle", "/big.bin", fmt.Sprintf("Range: bytes=%d-%d\r\n", size/2, size/2+999), 206,
			fmt.Sprintf("bytes %d-%d/%d", size/2, size/2+999, size), data[size/2 : size/2+1000]},
		{"large suffix", "/big.bin", "Range: bytes=-1000\r\n", 206,
			fmt.Sprintf("bytes %d-%d/%d", size-1000, size-1, size), data[size-1000:]},
		{"large unsatisfiable", "/big.bin", fmt.Sprintf("Range: bytes=%d-\r\n", size), 416,
			fmt.Sprintf("bytes */%d", size), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			status, headers, body := get(t, conn, r, "GET", tc.path, tc.hdr)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d", status, tc.wantStatus)
			}
			if headers["content-range"] != tc.wantRange {
				t.Errorf("content-range = %q, want %q", headers["content-range"], tc.wantRange)
			}
			if tc.wantBody != nil && !bytes.Equal(body, tc.wantBody) {
				t.Errorf("body mismatch: got %d bytes, want %d", len(body), len(tc.wantBody))
			}
		})
	}
}

func TestConditionalBeatsRange(t *testing.T) {
	s, _ := startLargeHTTP(t, 64<<10, 128<<10)
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)

	// Learn the file's Last-Modified.
	_, headers, _ := get(t, conn, r, "HEAD", "/big.bin", "")
	lm := headers["last-modified"]
	if lm == "" {
		t.Fatal("no Last-Modified")
	}
	// If-Modified-Since wins: 304, the Range is not evaluated.
	status, headers, _ := get(t, conn, r, "GET", "/big.bin",
		"If-Modified-Since: "+lm+"\r\nRange: bytes=0-9\r\n")
	if status != 304 {
		t.Fatalf("conditional+range: %d, want 304", status)
	}
	if headers["content-range"] != "" {
		t.Errorf("304 carries Content-Range %q", headers["content-range"])
	}
	// Same for an unsatisfiable range: the 304 still wins over the 416.
	status, _, _ = get(t, conn, r, "GET", "/big.bin",
		"If-Modified-Since: "+lm+"\r\nRange: bytes=999999999-\r\n")
	if status != 304 {
		t.Errorf("conditional+bad range: %d, want 304", status)
	}
}

func TestHeadRangeHeadersOnly(t *testing.T) {
	s, data := startLargeHTTP(t, 64<<10, 128<<10)
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)

	status, headers, _ := get(t, conn, r, "HEAD", "/big.bin", "Range: bytes=100-199\r\n")
	if status != 206 {
		t.Fatalf("HEAD+Range: %d, want 206", status)
	}
	if headers["content-range"] != fmt.Sprintf("bytes 100-199/%d", len(data)) {
		t.Errorf("content-range = %q", headers["content-range"])
	}
	if headers["content-length"] != "100" {
		t.Errorf("content-length = %q, want 100", headers["content-length"])
	}
	// Headers only: the next request must parse cleanly.
	status, _, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" {
		t.Errorf("request after HEAD+Range: %d %q", status, body)
	}
}

// rawExchange sends one HTTP/1.0 request and returns every byte the
// server sends before closing the connection.
func rawExchange(t *testing.T, addr, method, path string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s %s HTTP/1.0\r\n\r\n", method, path)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestHeadErrorWireEquality pins the HEAD error contract at the byte
// level: for the same error, the HEAD reply is exactly the GET reply
// minus the body — same status line, same headers, same Content-Length.
func TestHeadErrorWireEquality(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	for _, path := range []string{"/missing.html", "/no/such/dir/"} {
		getRaw := rawExchange(t, s.Addr(), "GET", path)
		headRaw := rawExchange(t, s.Addr(), "HEAD", path)
		page := httpproto.ErrorPage(404)
		want := append(append([]byte(nil), headRaw...), page...)
		if !bytes.Equal(getRaw, want) {
			t.Errorf("%s: GET reply is not HEAD reply + body\nGET:  %q\nHEAD: %q", path, getRaw, headRaw)
		}
		if !bytes.Contains(headRaw, []byte("Content-Length: "+strconv.Itoa(len(page)))) {
			t.Errorf("%s: HEAD error lacks the GET Content-Length: %q", path, headRaw)
		}
	}
	// 405 takes the same contract through a different error site.
	getRaw := rawExchange(t, s.Addr(), "DELETE", "/about.txt")
	if !bytes.Contains(getRaw, []byte("405")) {
		t.Errorf("DELETE: %q", getRaw)
	}
}

func TestRangeCounters(t *testing.T) {
	s, _ := startLargeHTTP(t, 64<<10, 128<<10)
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	get(t, conn, r, "GET", "/big.bin", "Range: bytes=0-99\r\n")
	get(t, conn, r, "GET", "/about.txt", "Range: bytes=0-4\r\n")
	if status, _, _ := get(t, conn, r, "GET", "/about.txt", "Range: bytes=99-\r\n"); status != 416 {
		t.Fatalf("expected 416, got %d", status)
	}
	snap := s.Framework().Profile().Snapshot()
	if snap.Responses206 != 2 {
		t.Errorf("Responses206 = %d, want 2", snap.Responses206)
	}
	if snap.Responses416 != 1 {
		t.Errorf("Responses416 = %d, want 1", snap.Responses416)
	}
}
