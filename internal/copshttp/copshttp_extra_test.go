package copshttp

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logging"
	"repro/internal/options"
)

func TestAddrBeforeStart(t *testing.T) {
	s, err := New(Config{DocRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != "" {
		t.Errorf("Addr before start = %q", s.Addr())
	}
	if s.Framework() == nil {
		t.Error("Framework nil")
	}
}

func TestHeadOnMissingFile(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t)})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, _ := get(t, conn, r, "HEAD", "/ghost.html", "")
	if status != 404 {
		t.Errorf("HEAD missing = %d", status)
	}
}

func TestPermissionDenied(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	root := buildDocRoot(t)
	locked := filepath.Join(root, "locked.txt")
	if err := os.WriteFile(locked, []byte("x"), 0o000); err != nil {
		t.Fatal(err)
	}
	s := startHTTP(t, Config{DocRoot: root})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, _ := get(t, conn, r, "GET", "/locked.txt", "")
	if status != 403 {
		t.Errorf("permission-denied file = %d", status)
	}
}

func TestDirectoryWithoutIndexIs404(t *testing.T) {
	root := buildDocRoot(t)
	if err := os.MkdirAll(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := startHTTP(t, Config{DocRoot: root})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, _ := get(t, conn, r, "GET", "/empty/", "")
	if status != 404 {
		t.Errorf("dir without index = %d", status)
	}
}

func TestCustomIndexFile(t *testing.T) {
	root := buildDocRoot(t)
	if err := os.WriteFile(filepath.Join(root, "home.htm"), []byte("custom index"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := startHTTP(t, Config{DocRoot: root, IndexFile: "home.htm"})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, body := get(t, conn, r, "GET", "/", "")
	if status != 200 || string(body) != "custom index" {
		t.Errorf("custom index: %d %q", status, body)
	}
}

func TestBadRequestClosesConnection(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t)})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	if _, err := conn.Write([]byte("TOTAL GARBAGE\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	// The decode error tears the connection down.
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

func TestNoCacheConfiguration(t *testing.T) {
	opts := options.COPSHTTP()
	opts.Cache = options.NoCache
	opts.CacheCapacity = 0
	opts.FileIOThreads = 0
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t), Options: &opts})
	if s.Framework().Cache() != nil {
		t.Error("cache exists with O6 off")
	}
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" {
		t.Errorf("no-cache serving broken: %d %q", status, body)
	}
}

func TestAllCachePoliciesServe(t *testing.T) {
	for _, policy := range []options.CachePolicy{
		options.LFU, options.LRUMin, options.LRUThreshold, options.HyperG,
	} {
		opts := options.COPSHTTP()
		opts.Cache = policy
		opts.CacheThreshold = 64 << 10
		s := startHTTP(t, Config{DocRoot: buildDocRoot(t), Options: &opts})
		conn, _ := net.Dial("tcp", s.Addr())
		r := bufio.NewReader(conn)
		status, _, _ := get(t, conn, r, "GET", "/about.txt", "")
		conn.Close()
		if status != 200 {
			t.Errorf("policy %v: status %d", policy, status)
		}
	}
}

func TestConditionalGetReturns304(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)

	// First GET: 200 with Last-Modified.
	status, headers, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" {
		t.Fatalf("first GET: %d %q", status, body)
	}
	lm := headers["last-modified"]
	if lm == "" {
		t.Fatal("Last-Modified missing")
	}
	// Conditional GET with that timestamp: 304, no body.
	status, headers, body = get(t, conn, r, "GET", "/about.txt",
		"If-Modified-Since: "+lm+"\r\n")
	if status != 304 {
		t.Fatalf("conditional GET: %d", status)
	}
	if len(body) != 0 || headers["content-length"] != "0" {
		t.Errorf("304 carried a body: %q (cl=%s)", body, headers["content-length"])
	}
	// A stale timestamp gets the full file again.
	status, _, body = get(t, conn, r, "GET", "/about.txt",
		"If-Modified-Since: Mon, 01 Jan 1990 00:00:00 GMT\r\n")
	if status != 200 || string(body) != "about text" {
		t.Errorf("stale conditional: %d %q", status, body)
	}
	// Garbage dates are ignored.
	status, _, _ = get(t, conn, r, "GET", "/about.txt",
		"If-Modified-Since: not a date\r\n")
	if status != 200 {
		t.Errorf("garbage IMS: %d", status)
	}
}

// lockedBuffer is a goroutine-safe log sink: the server writes records
// after it has already replied, so the test must synchronize reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogging(t *testing.T) {
	opts := options.COPSHTTP()
	opts.Logging = true
	var buf lockedBuffer
	s := startHTTP(t, Config{
		DocRoot:   buildDocRoot(t),
		Options:   &opts,
		AccessLog: logging.NewLogger(&buf, logging.LevelInfo),
	})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	get(t, conn, r, "GET", "/about.txt", "")
	get(t, conn, r, "GET", "/missing", "")
	deadline := time.After(2 * time.Second)
	for {
		out := buf.String()
		if strings.Contains(out, `"GET /about.txt HTTP/1.1" 200 10`) &&
			strings.Contains(out, `"GET /missing HTTP/1.1" 404`) {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("access log incomplete:\n%s", out)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestNoAccessLogWhenO12Off(t *testing.T) {
	var buf lockedBuffer
	s := startHTTP(t, Config{
		DocRoot:   buildDocRoot(t),
		AccessLog: logging.NewLogger(&buf, logging.LevelInfo),
	})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	get(t, conn, r, "GET", "/about.txt", "")
	time.Sleep(20 * time.Millisecond)
	if out := buf.String(); out != "" {
		t.Errorf("access log written with O12 off:\n%s", out)
	}
}
