package copshttp

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// dialWire opens a raw client connection to the server for byte-level
// wire tests.
func dialWire(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

// expectEOF asserts the server closed the connection without sending
// further bytes.
func expectEOF(t *testing.T, r *bufio.Reader) {
	t.Helper()
	if b, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("want EOF, got byte %q err %v", b, err)
	}
}

// TestWireTransferEncodingRefused pins the desync fix at the wire: a
// request announcing Transfer-Encoding gets 501 + Connection: close, and
// the chunked body bytes — which carry a smuggled request — are never
// parsed as a pipelined request.
func TestWireTransferEncodingRefused(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t)})
	conn, r := dialWire(t, s)

	smuggled := "GET /about.txt HTTP/1.1\r\n\r\n"
	if _, err := conn.Write([]byte(
		"POST /index.html HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"1a\r\n" + smuggled + "\r\n0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	status, headers, _, err := readResponse(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if status != 501 {
		t.Fatalf("status = %d, want 501", status)
	}
	if headers["connection"] != "close" {
		t.Fatalf("Connection = %q, want close", headers["connection"])
	}
	// The smuggled GET must never be answered: the stream is poisoned and
	// the connection closes after the refusal.
	expectEOF(t, r)
}

// TestWireConflictingContentLengthTearsDown pins the smuggling defense at
// the wire: conflicting duplicate Content-Length headers are unrecoverable
// — no reply, no reuse, just a close (bad framing never gets a response
// that could mask where the stream desynced).
func TestWireConflictingContentLengthTearsDown(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t)})
	conn, r := dialWire(t, s)

	// CL:0 smuggle shape: if the parser last-won to 0, "hello" would be
	// parsed as the next request.
	if _, err := conn.Write([]byte(
		"POST /index.html HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello")); err != nil {
		t.Fatal(err)
	}
	expectEOF(t, r)
}

// TestWireConnectionTokenList pins the RFC 9112 §9.6 fix at the wire for
// both protocol versions.
func TestWireConnectionTokenList(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t)})

	// HTTP/1.1 with "close, te": one response carrying Connection: close,
	// then EOF — the old single-token comparison kept this alive.
	conn, r := dialWire(t, s)
	if _, err := conn.Write([]byte("GET /about.txt HTTP/1.1\r\nConnection: close, te\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	status, headers, _, err := readResponse(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 || headers["connection"] != "close" {
		t.Fatalf("status %d connection %q, want 200 + close", status, headers["connection"])
	}
	expectEOF(t, r)

	// HTTP/1.0 with "keep-alive, upgrade" must persist: the old
	// whole-string comparison closed it after the first response.
	conn2, r2 := dialWire(t, s)
	if _, err := conn2.Write([]byte(
		"GET /about.txt HTTP/1.0\r\nConnection: keep-alive, upgrade\r\n\r\n" +
			"GET /about.txt HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		status, _, body, err := readResponse(r2, false)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if status != 200 || string(body) != "about text" {
			t.Fatalf("response %d: status %d body %q", i, status, body)
		}
	}
}

// TestWirePipelinedRepliesStayOrdered pins the reply sequencer: a
// synchronous 405 computed for the second pipelined request must not
// overtake the first request's asynchronous file completion. Many rounds
// of (async 200, sync 405, async 200) pairs make a pre-sequencer
// reordering all but certain while staying deterministic to check — the
// observed statuses must arrive exactly in request order every round.
func TestWirePipelinedRepliesStayOrdered(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t)})
	conn, r := dialWire(t, s)

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if _, err := conn.Write([]byte(
			"GET /about.txt HTTP/1.1\r\n\r\n" +
				"DELETE /about.txt HTTP/1.1\r\n\r\n" +
				"GET /img/logo.png HTTP/1.1\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		want := []int{200, 405, 200}
		for j, w := range want {
			status, _, _, err := readResponse(r, false)
			if err != nil {
				t.Fatalf("round %d response %d: %v", i, j, err)
			}
			if status != w {
				t.Fatalf("round %d response %d: status %d, want %d (reply overtook the pipeline)", i, j, status, w)
			}
		}
	}
}

// TestWireRequestCapAllowsPipelinedBurst: MaxRequestBytes caps one
// request, not one read. A single write of 150 small pipelined GETs —
// well over the 4 KiB cap in total, each far under it — is answered in
// full, while a request that alone outgrows the cap is still torn down.
func TestWireRequestCapAllowsPipelinedBurst(t *testing.T) {
	o := options.COPSHTTP().WithHardening(0, 0, 4096)
	s := startHTTP(t, Config{DocRoot: buildDocRoot(t), Options: &o})
	conn, r := dialWire(t, s)
	const get = "GET /about.txt HTTP/1.1\r\nHost: a\r\n\r\n"
	const n = 150
	if _, err := conn.Write([]byte(strings.Repeat(get, n))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		status, _, body, err := readResponse(r, false)
		if err != nil {
			t.Fatalf("reply %d of a %d-byte burst: %v", i, n*len(get), err)
		}
		if status != 200 || string(body) != "about text" {
			t.Fatalf("reply %d: %d %q", i, status, body)
		}
	}

	conn, r = dialWire(t, s)
	if _, err := conn.Write([]byte("GET /about.txt HTTP/1.1\r\nX-Pad: " + strings.Repeat("x", 8192))); err != nil {
		t.Fatal(err)
	}
	expectEOF(t, r)
}
