package copshttp

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/logging"
	"repro/internal/options"
)

// TestAccessLogNamesPipelinedRequest pins the O12 record of each
// pipelined reply to its own request: three cold GETs in one write all
// complete on the asynchronous hops after the third was dispatched, and
// each record must still carry the ordinal its request got in Handle.
func TestAccessLogNamesPipelinedRequest(t *testing.T) {
	opts := options.COPSHTTP()
	opts.Logging = true
	var buf lockedBuffer
	s := startHTTP(t, Config{
		DocRoot:   buildDocRoot(t),
		Options:   &opts,
		AccessLog: logging.NewLogger(&buf, logging.LevelInfo),
	})
	conn, r := dialWire(t, s)
	paths := []string{"/index.html", "/about.txt", "/img/logo.png"}
	var wire string
	for _, p := range paths {
		wire += "GET " + p + " HTTP/1.1\r\nHost: test\r\n\r\n"
	}
	if _, err := conn.Write([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		if status, _, _, err := readResponse(r, false); err != nil || status != 200 {
			t.Fatalf("reply %d: status %d, %v", i, status, err)
		}
	}
	var records []*regexp.Regexp
	for i, p := range paths {
		records = append(records, regexp.MustCompile(
			`"GET `+regexp.QuoteMeta(p)+` HTTP/1\.1" 200 \d+ id=c\d+-r`+strconv.Itoa(i+1)+`\n`))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		out := buf.String()
		missing := -1
		for i, re := range records {
			if !re.MatchString(out) {
				missing = i
				break
			}
		}
		if missing < 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no record for %s naming request r%d:\n%s", paths[missing], missing+1, out)
		}
		time.Sleep(time.Millisecond)
	}
}

// openDescriptors counts this process's open descriptors (-1 without
// /proc).
func openDescriptors() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestMixedPipelinedWindow sends one write carrying every kind of reply
// COPS-HTTP produces: a cold GET (stat and read hops), a GET above the
// large-file threshold (a streamed reply), a DELETE (a synchronous 405),
// a warm hit, a GET with Connection: close and one more GET. The replies
// arrive in request order with the streamed bytes exact, nothing follows
// the closing reply, and the connection's descriptors and goroutines are
// gone once it closes.
func TestMixedPipelinedWindow(t *testing.T) {
	root := buildDocRoot(t)
	big := largePattern(256<<10 + 3)
	if err := os.WriteFile(filepath.Join(root, "big.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options.COPSHTTP().WithLargeFiles(64 << 10)
	s := startHTTP(t, Config{DocRoot: root, Options: &opts})

	warm, wr := dialWire(t, s)
	if status, _, _ := get(t, warm, wr, "GET", "/about.txt", ""); status != 200 {
		t.Fatalf("warmup: %d", status)
	}
	warm.Close()
	settle := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never settled", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	settle("the warmup connection", func() bool { return s.Framework().ActiveConns() == 0 })
	fds, goroutines := openDescriptors(), runtime.NumGoroutine()

	conn, r := dialWire(t, s)
	const host = "Host: test\r\n"
	wire := "GET /index.html HTTP/1.1\r\n" + host + "\r\n" +
		"GET /big.bin HTTP/1.1\r\n" + host + "\r\n" +
		"DELETE /about.txt HTTP/1.1\r\n" + host + "\r\n" +
		"GET /about.txt HTTP/1.1\r\n" + host + "\r\n" +
		"GET /img/logo.png HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n" +
		"GET /about.txt HTTP/1.1\r\n" + host + "\r\n"
	if _, err := conn.Write([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	for i, w := range []struct {
		status int
		body   []byte
		close  bool
	}{
		{200, []byte("<html>home</html>"), false},
		{200, big, false},
		{405, nil, false},
		{200, []byte("about text"), false},
		{200, []byte("PNGDATA"), true},
	} {
		status, headers, body, err := readResponse(r, false)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if status != w.status || (w.body != nil && !bytes.Equal(body, w.body)) {
			t.Fatalf("reply %d: status %d with %d body bytes, want %d (%d bytes)", i, status, len(body), w.status, len(w.body))
		}
		if (headers["connection"] == "close") != w.close {
			t.Fatalf("reply %d: Connection %q", i, headers["connection"])
		}
	}
	expectEOF(t, r)
	conn.Close()

	settle("the connection", func() bool { return s.Framework().ActiveConns() == 0 })
	if fds >= 0 {
		settle("open descriptors", func() bool { return openDescriptors() <= fds })
	}
	settle("goroutines", func() bool { return runtime.NumGoroutine() <= goroutines })
}
