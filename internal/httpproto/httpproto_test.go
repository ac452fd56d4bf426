package httpproto

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleGet(t *testing.T) {
	raw := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: test\r\n\r\n")
	req, n, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Errorf("consumed %d of %d", n, len(raw))
	}
	if req.Method != "GET" || req.Path != "/index.html" || req.Proto != "HTTP/1.1" {
		t.Errorf("parsed %+v", req)
	}
	if req.Headers.Get("host") != "example.com" {
		t.Errorf("case-insensitive get failed: %q", req.Headers.Get("host"))
	}
	if !req.KeepAlive() {
		t.Error("HTTP/1.1 default should be keep-alive")
	}
}

// TestReleasedRequestStartsClean parses a request that spills its header
// fields past the inline storage, carries a query and a body, releases
// it, and parses a one-field request: whichever pooled Request comes
// back, it holds only the new request's fields, again in inline storage.
func TestReleasedRequestStartsClean(t *testing.T) {
	big := []byte("POST /a?q=1 HTTP/1.1\r\nHost: x\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nContent-Length: 3\r\n\r\nabc")
	small := []byte("GET /b HTTP/1.1\r\nHost: y\r\n\r\n")
	for i := 0; i < 100; i++ {
		req, _, err := ParseRequest(big)
		if err != nil || req.Headers.Len() != 6 || string(req.Body) != "abc" {
			t.Fatalf("big request: %v, %d fields, body %q", err, req.Headers.Len(), req.Body)
		}
		ReleaseRequest(req)
		req, n, err := ParseRequest(small)
		if err != nil || n != len(small) {
			t.Fatalf("small request: %v (%d of %d bytes)", err, n, len(small))
		}
		if req.Method != "GET" || req.Path != "/b" || req.Query != "" || req.Body != nil || req.Refuse != 0 {
			t.Fatalf("small request carries the released one's state: %+v", req)
		}
		if req.Headers.Len() != 1 || req.Headers.Get("Host") != "y" || req.Headers.Has("A") {
			t.Fatalf("small request's headers: %d fields, Host %q", req.Headers.Len(), req.Headers.Get("Host"))
		}
		if &req.Headers.fields[0] != &req.inline[0] {
			t.Fatal("small request's fields left the inline storage")
		}
		ReleaseRequest(req)
	}
}

func TestParseIncremental(t *testing.T) {
	full := "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
	for cut := 0; cut < len(full); cut++ {
		req, n, err := ParseRequest([]byte(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if req != nil || n != 0 {
			t.Fatalf("cut %d: premature parse (n=%d)", cut, n)
		}
	}
	req, n, err := ParseRequest([]byte(full))
	if err != nil || req == nil || n != len(full) {
		t.Fatalf("full parse failed: %v %v %d", req, err, n)
	}
}

func TestParsePipelined(t *testing.T) {
	raw := []byte("GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n")
	req1, n1, err := ParseRequest(raw)
	if err != nil || req1.Path != "/1" {
		t.Fatalf("first: %v %v", req1, err)
	}
	req2, n2, err := ParseRequest(raw[n1:])
	if err != nil || req2.Path != "/2" {
		t.Fatalf("second: %v %v", req2, err)
	}
	if n1+n2 != len(raw) {
		t.Errorf("consumed %d+%d of %d", n1, n2, len(raw))
	}
}

func TestParseBody(t *testing.T) {
	raw := []byte("POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
	req, n, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) || string(req.Body) != "hello" {
		t.Errorf("body = %q n=%d", req.Body, n)
	}
	// Incomplete body: wait for more.
	req2, n2, err := ParseRequest(raw[:len(raw)-1])
	if err != nil || req2 != nil || n2 != 0 {
		t.Errorf("incomplete body: %v %d %v", req2, n2, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want error
	}{
		{"bad request line", "GARBAGE\r\n\r\n", ErrBadRequestLine},
		{"too many parts", "GET / HTTP/1.1 EXTRA\r\n\r\n", ErrBadRequestLine},
		{"bad version", "GET / HTTP/2.0\r\n\r\n", ErrBadVersion},
		{"relative target", "GET index.html HTTP/1.1\r\n\r\n", ErrBadRequestLine},
		{"bad method token", "GE T/ / HTTP/1.1\r\n\r\n", ErrBadRequestLine},
		{"header no colon", "GET / HTTP/1.1\r\nBadHeader\r\n\r\n", ErrBadHeader},
		{"header space in key", "GET / HTTP/1.1\r\nBad Key: v\r\n\r\n", ErrBadHeader},
		{"bad content length", "GET / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n", ErrBadHeader},
		{"negative content length", "GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", ErrBadHeader},
		{"huge body", fmt.Sprintf("GET / HTTP/1.1\r\nContent-Length: %d\r\n\r\n", MaxBodyBytes+1), ErrBodyTooLarge},
		{"bad escape", "GET /%zz HTTP/1.1\r\n\r\n", ErrBadPath},
		{"truncated escape", "GET /%4 HTTP/1.1\r\n\r\n", ErrBadPath},
		{"101 field lines", fieldLinesRequest(MaxHeaderFields+1, ""), ErrHeaderTooLarge},
		{"16 KiB of one-byte field names", oneByteNamesRequest(2771), ErrHeaderTooLarge},
		{"mixed-case conflicting content lengths", "POST /p HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 0\r\n\r\nhello", ErrBadHeader},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseRequest([]byte(tc.raw))
			if !errors.Is(err, tc.want) {
				t.Errorf("got %v want %v", err, tc.want)
			}
		})
	}
}

func TestHeaderTooLarge(t *testing.T) {
	// No terminator and oversized: reject rather than buffer forever.
	big := []byte("GET / HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHeaderBytes))
	if _, _, err := ParseRequest(big); !errors.Is(err, ErrHeaderTooLarge) {
		t.Errorf("unterminated oversize: %v", err)
	}
	// Terminated but oversized.
	big2 := []byte("GET / HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHeaderBytes) + "\r\n\r\n")
	if _, _, err := ParseRequest(big2); !errors.Is(err, ErrHeaderTooLarge) {
		t.Errorf("terminated oversize: %v", err)
	}
}

// fieldLinesRequest returns a GET whose head carries n distinct field
// lines followed by the raw extra lines, then body.
func fieldLinesRequest(n int, extra string) string {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "X-Field-%d: %d\r\n", i, i)
	}
	b.WriteString(extra)
	b.WriteString("\r\n")
	return b.String()
}

// oneByteNamesRequest returns a GET whose head, padded to exactly
// MaxHeaderBytes, is n field lines with one-byte names: the shape that
// costs a linear header scan the most per byte.
func oneByteNamesRequest(n int) string {
	const names = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1")
	for i := 0; i < n; i++ {
		b.WriteString("\r\n")
		b.WriteByte(names[i%len(names)])
		b.WriteString(":v")
	}
	b.WriteString(strings.Repeat("v", MaxHeaderBytes-b.Len()))
	b.WriteString("\r\n\r\n")
	return b.String()
}

// TestHeaderFieldLines pins what a head within the field-line cap keeps:
// MaxHeaderFields lines parse, and Content-Length lines that differ only
// in case combine into one list the §8.6 check accepts when they agree.
func TestHeaderFieldLines(t *testing.T) {
	raw := fieldLinesRequest(MaxHeaderFields, "")
	req, n, err := ParseRequest([]byte(raw))
	if err != nil || n != len(raw) {
		t.Fatalf("%d field lines: n=%d err=%v", MaxHeaderFields, n, err)
	}
	if req.Headers.Len() != MaxHeaderFields || req.Headers.Get("X-Field-99") != "99" {
		t.Fatalf("%d field lines: len=%d last=%q", MaxHeaderFields, req.Headers.Len(), req.Headers.Get("X-Field-99"))
	}

	// Repeats count as lines: 99 fields plus two Content-Length lines is
	// over the cap although only 100 keys remain.
	dup := fieldLinesRequest(MaxHeaderFields-1, "Content-Length: 0\r\ncontent-length: 0\r\n")
	if _, _, err := ParseRequest([]byte(dup)); !errors.Is(err, ErrHeaderTooLarge) {
		t.Fatalf("101 lines with a repeated key: err=%v, want ErrHeaderTooLarge", err)
	}

	same := "POST /p HTTP/1.1\r\ncontent-length: 5\r\nCONTENT-LENGTH: 5\r\n\r\nhello"
	req, n, err = ParseRequest([]byte(same))
	if err != nil || n != len(same) || string(req.Body) != "hello" {
		t.Fatalf("agreeing mixed-case content lengths: n=%d err=%v", n, err)
	}
	if got := req.Headers.Get("Content-Length"); got != "5, 5" || req.Headers.Len() != 1 {
		t.Fatalf("content lengths combined to %q over %d keys, want \"5, 5\" over 1", got, req.Headers.Len())
	}
}

func TestPercentDecodingAndQuery(t *testing.T) {
	raw := []byte("GET /a%20b/c.html?x=1&y=2 HTTP/1.1\r\n\r\n")
	req, _, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Path != "/a b/c.html" {
		t.Errorf("Path = %q", req.Path)
	}
	if req.Query != "x=1&y=2" {
		t.Errorf("Query = %q", req.Query)
	}
	if req.Target != "/a%20b/c.html?x=1&y=2" {
		t.Errorf("Target = %q", req.Target)
	}
}

func TestKeepAliveSemantics(t *testing.T) {
	cases := []struct {
		proto, connection string
		want              bool
	}{
		{"HTTP/1.1", "", true},
		{"HTTP/1.1", "close", false},
		{"HTTP/1.1", "keep-alive", true},
		{"HTTP/1.0", "", false},
		{"HTTP/1.0", "keep-alive", true},
		{"HTTP/1.0", "close", false},
	}
	for _, tc := range cases {
		req := &Request{Proto: tc.proto, Headers: NewHeader()}
		if tc.connection != "" {
			req.Headers.Set("Connection", tc.connection)
		}
		if got := req.KeepAlive(); got != tc.want {
			t.Errorf("%s Connection=%q: keepalive=%v want %v", tc.proto, tc.connection, got, tc.want)
		}
	}
}

func TestCleanPathTraversal(t *testing.T) {
	cases := map[string]string{
		"/":                     "/",
		"/index.html":           "/index.html",
		"//a///b":               "/a/b",
		"/a/./b":                "/a/b",
		"/a/../b":               "/b",
		"/../../etc/passwd":     "/etc/passwd",
		"/a/b/../../../../x":    "/x",
		"/a/b/..":               "/a/",
		"/dir/":                 "/dir/",
		"/a/b/c/../../../../..": "/",
	}
	for in, want := range cases {
		if got := CleanPath(in); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeaderCanonicalization(t *testing.T) {
	h := NewHeader()
	h.Set("content-type", "a")
	h.Set("CONTENT-TYPE", "b")
	if h.Len() != 1 || h.Get("Content-Type") != "b" {
		t.Errorf("canonicalization failed: len=%d get=%q", h.Len(), h.Get("Content-Type"))
	}
	var order []string
	h.Set("X-Second", "2")
	h.Each(func(k, v string) { order = append(order, k) })
	if order[0] != "Content-Type" || order[1] != "X-Second" {
		t.Errorf("order = %v", order)
	}
	if h.Has("x-second") != true || h.Has("missing") {
		t.Error("Has wrong")
	}
}

// TestValueOfSeveralFields asks Value for two Fields at once, which its
// doc rules out, on a header holding only the higher one: the answer is
// "", as Get gives for the lower one, not a panic.
func TestValueOfSeveralFields(t *testing.T) {
	h := NewHeader()
	h.Set("Date", "d")
	if v := h.Value(FieldRange | FieldDate); v != "" {
		t.Errorf("Value(Range|Date) = %q, want \"\"", v)
	}
	if v := h.Value(0); v != "" {
		t.Errorf("Value(0) = %q, want \"\"", v)
	}
}

func TestEncodeResponse(t *testing.T) {
	r := NewResponse(200, "text/html", []byte("<p>hi</p>"))
	out := string(EncodeResponse(r))
	for _, want := range []string{
		"HTTP/1.1 200 OK\r\n",
		"Content-Type: text/html\r\n",
		"Content-Length: 9\r\n",
		"Server: COPS-HTTP/1.0\r\n",
		"Date: ",
		"\r\n\r\n<p>hi</p>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Connection:") {
		t.Error("unexpected Connection header")
	}
}

func TestEncodeResponseClose(t *testing.T) {
	r := ErrorResponse(404, true)
	out := string(EncodeResponse(r))
	if !strings.Contains(out, "HTTP/1.1 404 Not Found\r\n") {
		t.Errorf("bad status line:\n%s", out)
	}
	if !strings.Contains(out, "Connection: close\r\n") {
		t.Error("missing Connection: close")
	}
	if !strings.Contains(out, "<h1>404 Not Found</h1>") {
		t.Error("missing error body")
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(503) != "Service Unavailable" {
		t.Error("known status text wrong")
	}
	if StatusText(299) != "Status 299" {
		t.Errorf("unknown status = %q", StatusText(299))
	}
}

func TestMimeTypes(t *testing.T) {
	cases := map[string]string{
		"/index.html":     "text/html",
		"/style.CSS":      "text/css",
		"/a/b/photo.jpeg": "image/jpeg",
		"/archive.tar":    "application/x-tar",
		"/noext":          "application/octet-stream",
		"/weird.xyz":      "application/octet-stream",
		"/dir.d/file":     "application/octet-stream",
	}
	for name, want := range cases {
		if got := MimeType(name); got != want {
			t.Errorf("MimeType(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCodecAdapters(t *testing.T) {
	var c Codec
	req, n, err := c.Decode([]byte("GET /x HTTP/1.1\r\n\r\n"))
	if err != nil || n == 0 {
		t.Fatalf("decode: %v n=%d", err, n)
	}
	if req.(*Request).Path != "/x" {
		t.Errorf("decoded %+v", req)
	}
	if _, n, err := c.Decode([]byte("GET /x")); err != nil || n != 0 {
		t.Errorf("partial decode: n=%d err=%v", n, err)
	}
	if _, _, err := c.Decode([]byte("BAD\r\n\r\n")); err == nil {
		t.Error("bad request accepted")
	}
	out, err := c.Encode(NewResponse(204, "text/plain", nil))
	if err != nil || !bytes.Contains(out, []byte("204 No Content")) {
		t.Errorf("encode response: %v %q", err, out)
	}
	raw, err := c.Encode([]byte("rawbytes"))
	if err != nil || string(raw) != "rawbytes" {
		t.Errorf("encode raw: %v %q", err, raw)
	}
	if _, err := c.Encode(42); err == nil {
		t.Error("encoded unsupported type")
	}
}

// Property: any request the encoder-side can print is parsed back with
// identical method, path and headers (a build-then-parse round trip).
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(pathSeed []byte, nHeaders uint8, keepAlive bool) bool {
		// Build a safe path from the seed.
		var sb strings.Builder
		sb.WriteByte('/')
		for _, b := range pathSeed {
			c := 'a' + (b % 26)
			sb.WriteByte(c)
		}
		path := sb.String()
		var raw bytes.Buffer
		fmt.Fprintf(&raw, "GET %s HTTP/1.1\r\n", path)
		n := int(nHeaders % 8)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&raw, "X-H%d: v%d\r\n", i, i)
		}
		if !keepAlive {
			raw.WriteString("Connection: close\r\n")
		}
		raw.WriteString("\r\n")
		req, consumed, err := ParseRequest(raw.Bytes())
		if err != nil || req == nil || consumed != raw.Len() {
			return false
		}
		if req.Method != "GET" || req.Path != path {
			return false
		}
		for i := 0; i < n; i++ {
			if req.Headers.Get(fmt.Sprintf("x-h%d", i)) != fmt.Sprintf("v%d", i) {
				return false
			}
		}
		return req.KeepAlive() == keepAlive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ParseRequest never panics and never over-consumes on
// arbitrary byte soup.
func TestQuickParserRobustness(t *testing.T) {
	f := func(junk []byte) bool {
		req, n, err := ParseRequest(junk)
		if n < 0 || n > len(junk) {
			return false
		}
		if err == nil && req != nil && n == 0 {
			return false // parsed a request but consumed nothing
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// BenchmarkParseRequest prices the Decode Request step as the server
// pays it on a pipelined window of 16 requests: one op decodes the
// window, asks each request what the fast path asks (keep-alive, Range,
// If-Modified-Since) and hands it back with ReleaseRequest, as FastServe
// does. "nsbench" is the request of nsbench's pipelined_get workload,
// "browser" a browser-shaped head of ten header lines. ns/req is ns/op
// per request of the window.
func BenchmarkParseRequest(b *testing.B) {
	for _, w := range []struct{ name, req string }{
		{"nsbench", "GET /hot/6b8b4567.html HTTP/1.1\r\nHost: nsbench\r\n\r\n"},
		{"browser", "GET /docs/dir1/class2_5.html HTTP/1.1\r\n" +
			"Host: www.example.com\r\n" +
			"User-Agent: Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/120.0.0.0 Safari/537.36\r\n" +
			"Accept: text/html,application/xhtml+xml,application/xml;q=0.9,image/avif,image/webp,*/*;q=0.8\r\n" +
			"Accept-Language: en-US,en;q=0.9\r\n" +
			"Accept-Encoding: gzip, deflate, br\r\n" +
			"Referer: http://www.example.com/docs/dir1/index.html\r\n" +
			"Cookie: session=4f6a1c2b9e8d7a6b; theme=light\r\n" +
			"Connection: keep-alive\r\n" +
			"Cache-Control: max-age=0\r\n" +
			"Upgrade-Insecure-Requests: 1\r\n\r\n"},
	} {
		b.Run(w.name, func(b *testing.B) {
			const perWindow = 16
			window := []byte(strings.Repeat(w.req, perWindow))
			b.ReportAllocs()
			b.SetBytes(int64(len(window)))
			for i := 0; i < b.N; i++ {
				for buf := window; len(buf) > 0; {
					r, n, err := ParseRequest(buf)
					if err != nil || r == nil {
						b.Fatalf("n=%d err=%v", n, err)
					}
					if !r.KeepAlive() || r.Headers.Value(FieldRange) != "" || r.Headers.Value(FieldIfModifiedSince) != "" {
						b.Fatal("the request is not a fast-path candidate")
					}
					ReleaseRequest(r)
					buf = buf[n:]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perWindow), "ns/req")
		})
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	body := make([]byte, 16<<10)
	r := NewResponse(200, "text/html", body)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeResponse(r)
	}
}
