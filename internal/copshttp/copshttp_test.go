package copshttp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/nserver"
	"repro/internal/options"
)

// buildDocRoot creates a small site on disk.
func buildDocRoot(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"index.html":     "<html>home</html>",
		"about.txt":      "about text",
		"img/logo.png":   "PNGDATA",
		"sub/index.html": "<html>sub</html>",
		"portal/p1.html": strings.Repeat("P", 2048),
		"home/h1.html":   strings.Repeat("H", 2048),
	}
	for name, content := range files {
		full := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func startHTTP(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// get issues one request on conn and parses status, headers and body.
func get(t *testing.T, conn net.Conn, r *bufio.Reader, method, path, extraHeaders string) (int, map[string]string, []byte) {
	t.Helper()
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: test\r\n%s\r\n", method, path, extraHeaders)
	status, headers, body, err := readResponse(r, method == "HEAD")
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return status, headers, body
}

func readResponse(r *bufio.Reader, headOnly bool) (int, map[string]string, []byte, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return 0, nil, nil, err
	}
	parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(parts) < 2 {
		return 0, nil, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, nil, err
	}
	headers := map[string]string{}
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return 0, nil, nil, err
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		k, v, _ := strings.Cut(h, ":")
		headers[strings.ToLower(k)] = strings.TrimSpace(v)
	}
	n, _ := strconv.Atoi(headers["content-length"])
	var body []byte
	if !headOnly && n > 0 {
		body = make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, nil, nil, err
		}
	}
	return status, headers, body, nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing docroot accepted")
	}
	if _, err := New(Config{DocRoot: "/no/such/dir"}); err == nil {
		t.Error("nonexistent docroot accepted")
	}
	bad := options.COPSHTTP()
	bad.DispatcherThreads = 3
	if _, err := New(Config{DocRoot: t.TempDir(), Options: &bad}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestServeStaticFiles(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	status, headers, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" {
		t.Errorf("about.txt: %d %q", status, body)
	}
	if headers["content-type"] != "text/plain" {
		t.Errorf("content-type = %q", headers["content-type"])
	}

	// Persistent connection: next request on the same socket.
	status, headers, body = get(t, conn, r, "GET", "/img/logo.png", "")
	if status != 200 || string(body) != "PNGDATA" || headers["content-type"] != "image/png" {
		t.Errorf("logo.png: %d %q %q", status, body, headers["content-type"])
	}
}

func TestDirectoryServesIndex(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, body := get(t, conn, r, "GET", "/", "")
	if status != 200 || string(body) != "<html>home</html>" {
		t.Errorf("root: %d %q", status, body)
	}
	status, _, body = get(t, conn, r, "GET", "/sub/", "")
	if status != 200 || string(body) != "<html>sub</html>" {
		t.Errorf("subdir: %d %q", status, body)
	}
	// Directory without trailing slash redirects to the slash form so
	// relative links inside the index page resolve against the directory.
	status, headers, _ := get(t, conn, r, "GET", "/sub", "")
	if status != 301 || headers["location"] != "/sub/" {
		t.Errorf("no-slash dir: %d location=%q", status, headers["location"])
	}
	// The query string is not echoed into the Location.
	status, headers, _ = get(t, conn, r, "GET", "/sub?x=1", "")
	if status != 301 || headers["location"] != "/sub/" {
		t.Errorf("no-slash dir with query: %d location=%q", status, headers["location"])
	}
	// Following the redirect serves the index.
	status, _, body = get(t, conn, r, "GET", "/sub/", "")
	if status != 200 || string(body) != "<html>sub</html>" {
		t.Errorf("redirect target: %d %q", status, body)
	}
}

func TestNotFoundAndMethodNotAllowed(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, _ := get(t, conn, r, "GET", "/missing.html", "")
	if status != 404 {
		t.Errorf("missing: %d", status)
	}
	status, _, _ = get(t, conn, r, "DELETE", "/about.txt", "")
	if status != 405 {
		t.Errorf("DELETE: %d", status)
	}
}

func TestHeadOmitsBody(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, headers, _ := get(t, conn, r, "HEAD", "/about.txt", "")
	if status != 200 {
		t.Fatalf("HEAD status %d", status)
	}
	if headers["content-length"] != "10" {
		t.Errorf("content-length = %q", headers["content-length"])
	}
	// The connection must have no body bytes pending: issue another
	// request and get a clean status line.
	status, _, body := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 || string(body) != "about text" {
		t.Errorf("request after HEAD broken: %d %q", status, body)
	}
}

func TestTraversalBlocked(t *testing.T) {
	root := buildDocRoot(t)
	// Plant a file outside the docroot.
	outside := filepath.Join(filepath.Dir(root), "secret.txt")
	if err := os.WriteFile(outside, []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)
	s := startHTTP(t, Config{DocRoot: root})
	// One connection per probe: paths with an encoded slash now fail in
	// decode, which tears the connection down without a reply — that
	// counts as blocked, but would wedge requests pipelined behind it.
	for _, path := range []string{
		"/../secret.txt",
		"/..%2Fsecret.txt",
		"/a/../../secret.txt",
		"/%2e%2e/secret.txt",
	} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
		status, _, body, err := readResponse(bufio.NewReader(conn), false)
		if err == nil && status == 200 && string(body) == "secret" {
			t.Errorf("traversal %q leaked the file", path)
		}
		conn.Close()
	}
}

func TestConnectionCloseSemantics(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	// HTTP/1.0 without keep-alive: server closes after the reply.
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	fmt.Fprintf(conn, "GET /about.txt HTTP/1.0\r\n\r\n")
	r := bufio.NewReader(conn)
	status, headers, _, err := readResponse(r, false)
	if err != nil || status != 200 {
		t.Fatalf("1.0 response: %d %v", status, err)
	}
	if headers["connection"] != "close" {
		t.Errorf("Connection header = %q", headers["connection"])
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadByte(); err == nil {
		t.Error("connection stayed open after HTTP/1.0 reply")
	}
}

func TestCacheServesRepeatRequests(t *testing.T) {
	root := buildDocRoot(t)
	opts := options.COPSHTTP()
	opts.Profiling = true
	s := startHTTP(t, Config{DocRoot: root, Options: &opts})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	for i := 0; i < 4; i++ {
		status, _, body := get(t, conn, r, "GET", "/about.txt", "")
		if status != 200 || string(body) != "about text" {
			t.Fatalf("iteration %d: %d %q", i, status, body)
		}
	}
	// The serve counters are bumped after the reply is on the wire, so the
	// last request's may land just after the client has read it.
	snap := s.Framework().Profile().Snapshot()
	for deadline := time.Now().Add(2 * time.Second); snap.CacheHits+snap.CacheMisses+snap.DirectDispatched < 4 &&
		time.Now().Before(deadline); snap = s.Framework().Profile().Snapshot() {
		time.Sleep(time.Millisecond)
	}
	// Under the direct-dispatch sweep repeat requests are served from the
	// rendered-response cache and never reach the file cache, so the three
	// repeats split between file-cache hits (queued path) and direct
	// dispatches (fast path); without the sweep they are all file-cache hits.
	if snap.CacheMisses != 1 || snap.CacheHits+snap.DirectDispatched != 3 {
		t.Errorf("cache hits=%d misses=%d direct=%d", snap.CacheHits, snap.CacheMisses, snap.DirectDispatched)
	}
	if os.Getenv("NSERVER_DIRECT_DISPATCH") != "1" && snap.CacheHits != 3 {
		t.Errorf("cache hits=%d, want 3 without the direct-dispatch sweep", snap.CacheHits)
	}
}

func TestSpecWebLikeClientLoop(t *testing.T) {
	// The paper's workload: connect, issue 5 requests on the persistent
	// connection, disconnect — across several concurrent clients.
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})
	paths := []string{"/", "/about.txt", "/img/logo.png", "/portal/p1.html", "/home/h1.html"}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for cl := 0; cl < 16; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for _, p := range paths {
				fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", p)
				status, _, _, err := readResponse(r, false)
				if err != nil || status != 200 {
					errs <- fmt.Errorf("%s: status=%d err=%v", p, status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPriorityHookClassifiesConnections(t *testing.T) {
	root := buildDocRoot(t)
	opts := options.COPSHTTP()
	sched := opts.WithScheduling(1, 8)
	prio := func(c *nserver.Conn) events.Priority {
		// Everything from loopback is "portal" (high priority) here; the
		// hook exists to prove wiring, Fig. 5 exercises the policy.
		return 0
	}
	s := startHTTP(t, Config{DocRoot: root, Options: &sched, Priority: prio})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	status, _, _ := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 {
		t.Errorf("scheduled server broken: %d", status)
	}
}

func TestDecodeDelayBurnsTime(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root, DecodeDelay: 30 * time.Millisecond})
	conn, _ := net.Dial("tcp", s.Addr())
	defer conn.Close()
	r := bufio.NewReader(conn)
	start := time.Now()
	status, _, _ := get(t, conn, r, "GET", "/about.txt", "")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("decode delay not applied: %v", elapsed)
	}
}
