package httpproto

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzParseRequest drives the incremental parser with arbitrary bytes:
// it must never panic, never over-consume, and anything it parses must
// satisfy basic well-formedness.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte("POST /a HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("GET /%41%zz HTTP/1.1\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Add(bytes.Repeat([]byte("A"), MaxHeaderBytes+10))
	f.Add([]byte("POST /a HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc"))
	f.Add([]byte("POST /a HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 0\r\n\r\nabc"))
	f.Add([]byte("POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\nGET /x HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, n, err := ParseRequest(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if err == nil && req != nil {
			if n == 0 {
				t.Fatal("request parsed but nothing consumed")
			}
			if req.Method == "" || req.Path == "" || req.Path[0] != '/' {
				t.Fatalf("malformed accepted request: %+v", req)
			}
			if req.Proto != "HTTP/1.0" && req.Proto != "HTTP/1.1" {
				t.Fatalf("bad proto accepted: %q", req.Proto)
			}
			// Consumed-bytes consistency, the pipelining framing
			// invariant: a refusal must poison the whole buffer, a normal
			// parse must consume exactly head+body, and re-parsing the
			// same prefix must reproduce the same framing decision.
			if req.Refuse != 0 {
				if n != len(data) {
					t.Fatalf("refused request consumed %d of %d", n, len(data))
				}
			} else {
				if cl := req.Headers.Get("Content-Length"); cl != "" {
					want, ok := parseContentLength(cl)
					if !ok || int64(len(req.Body)) != want {
						t.Fatalf("accepted CL %q but body is %d bytes", cl, len(req.Body))
					}
				} else if len(req.Body) != 0 {
					t.Fatalf("body %d bytes without Content-Length", len(req.Body))
				}
				req2, n2, err2 := ParseRequest(data[:n])
				if err2 != nil || req2 == nil || n2 != n {
					t.Fatalf("re-parse of consumed prefix diverged: n=%d n2=%d err2=%v", n, n2, err2)
				}
				if req2.Method != req.Method || req2.Target != req.Target ||
					req2.Proto != req.Proto || !bytes.Equal(req2.Body, req.Body) {
					t.Fatalf("re-parse of consumed prefix changed the request")
				}
			}
		}
	})
}

// FuzzCleanPath asserts the traversal-defence invariant for arbitrary
// path strings: the result is always absolute and never contains ".."
// segments.
func FuzzCleanPath(f *testing.F) {
	f.Add("/../../etc/passwd")
	f.Add("//a//../b/./c/")
	f.Add("")
	f.Fuzz(func(t *testing.T, p string) {
		out := CleanPath(p)
		if len(out) == 0 || out[0] != '/' {
			t.Fatalf("CleanPath(%q) = %q not absolute", p, out)
		}
		for _, seg := range bytes.Split([]byte(out), []byte("/")) {
			if string(seg) == ".." {
				t.Fatalf("CleanPath(%q) = %q contains ..", p, out)
			}
		}
	})
}

// cleanPathOracle is CleanPath as it was before the already-clean early
// return: the differential oracle the current function must match.
func cleanPathOracle(p string) string {
	segs := strings.Split(p, "/")
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		switch s {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	cleaned := "/" + strings.Join(out, "/")
	if len(out) > 0 && (strings.HasSuffix(p, "/") || strings.HasSuffix(p, "/.") || strings.HasSuffix(p, "/..")) {
		if cleaned != "/" {
			cleaned += "/"
		}
	}
	return cleaned
}

// FuzzCleanPathMatchesOracle checks CleanPath against cleanPathOracle on
// arbitrary strings, and that a clean path is a fixed point.
func FuzzCleanPathMatchesOracle(f *testing.F) {
	for _, seed := range []string{
		"", "/", "//", "/.", "/..", "/a", "/a/", "/a//", "/a/b/c.html", "a/b",
		"/a/./b", "/a/../b", "/a/.", "/a/..", "/...", "/a/.b/..c/", "/./", "/../",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p string) {
		got, want := CleanPath(p), cleanPathOracle(p)
		if got != want {
			t.Fatalf("CleanPath(%q) = %q, oracle %q", p, got, want)
		}
		if again := CleanPath(got); again != got {
			t.Fatalf("CleanPath(%q) = %q is not a fixed point (%q)", p, got, again)
		}
	})
}

// TestCleanPathCleanInputAllocFree pins the early return: an already
// clean path, the shape every well-formed request has, costs nothing.
func TestCleanPathCleanInputAllocFree(t *testing.T) {
	for _, p := range []string{"/", "/index.html", "/docs/dir1/class2_5.html", "/sub/"} {
		if allocs := testing.AllocsPerRun(100, func() { _ = CleanPath(p) }); allocs != 0 {
			t.Errorf("CleanPath(%q): %.0f allocs, want 0", p, allocs)
		}
	}
}

// parseRequestOracle is ParseRequest as it was before the head was walked
// in place and before the header fields left the map: the head split into
// a line slice, the request line into a field slice, and the fields
// gathered in a mapHeader. It is the differential oracle the current
// parser must match, acceptance and result alike.
func parseRequestOracle(buf []byte) (*Request, int, error) {
	headerEnd := bytes.Index(buf, []byte("\r\n\r\n"))
	if headerEnd < 0 {
		if len(buf) > MaxHeaderBytes {
			return nil, 0, ErrHeaderTooLarge
		}
		return nil, 0, nil
	}
	if headerEnd > MaxHeaderBytes {
		return nil, 0, ErrHeaderTooLarge
	}
	head := buf[:headerEnd]
	consumed := headerEnd + 4

	lines := strings.Split(string(head), "\r\n")
	req, err := parseRequestLineOracle(lines[0])
	if err != nil {
		return nil, 0, err
	}
	var h mapHeader
	for i, line := range lines[1:] {
		if i == MaxHeaderFields {
			return nil, 0, ErrHeaderTooLarge
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok || key == "" || strings.ContainsAny(key, " \t") {
			return nil, 0, fmt.Errorf("%w: %q", ErrBadHeader, line)
		}
		h.Add(key, trimOWS(val))
	}
	h.Each(req.Headers.Set)
	if h.Has("Transfer-Encoding") {
		req.Refuse = 501
		return req, len(buf), nil
	}
	if cl := h.Get("Content-Length"); cl != "" {
		n, ok := parseContentLength(cl)
		if !ok {
			return nil, 0, fmt.Errorf("%w: bad Content-Length %q", ErrBadHeader, cl)
		}
		if n > MaxBodyBytes {
			return nil, 0, ErrBodyTooLarge
		}
		if int64(len(buf)-consumed) < n {
			return nil, 0, nil
		}
		req.Body = append([]byte(nil), buf[consumed:consumed+int(n)]...)
		consumed += int(n)
	}
	return req, consumed, nil
}

func parseRequestLineOracle(line string) (*Request, error) {
	parts := strings.Split(line, " ")
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: %q", ErrBadRequestLine, line)
	}
	method, target, proto := parts[0], parts[1], parts[2]
	if method == "" || !isToken(method) {
		return nil, fmt.Errorf("%w: bad method %q", ErrBadRequestLine, method)
	}
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: %q", ErrBadVersion, proto)
	}
	if target == "" || target[0] != '/' {
		return nil, fmt.Errorf("%w: target %q", ErrBadRequestLine, target)
	}
	rawPath, query, _ := strings.Cut(target, "?")
	path, err := decodePath(rawPath)
	if err != nil {
		return nil, err
	}
	return &Request{
		Method: method,
		Target: target,
		Path:   CleanPath(path),
		Query:  query,
		Proto:  proto,
	}, nil
}

// isToken reports whether s is a valid HTTP token (method name): the
// RFC 9110 tchar set spelled out byte by byte, the reference the parser's
// byte classes are checked against.
func isToken(s string) bool {
	for _, c := range []byte(s) {
		switch {
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0:
		default:
			return false
		}
	}
	return true
}

// requestString renders every field of a parse result, its keep-alive
// answer and each tracked field read by its bit, for comparison.
func requestString(req *Request, n int, err error) string {
	if err != nil {
		return fmt.Sprintf("n=%d err=%v", n, err)
	}
	if req == nil {
		return fmt.Sprintf("n=%d incomplete", n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d %q %q %q %q %q refuse=%d body=%q", n,
		req.Method, req.Target, req.Path, req.Query, req.Proto, req.Refuse, req.Body)
	req.Headers.Each(func(k, v string) { fmt.Fprintf(&b, " %q=%q", k, v) })
	fmt.Fprintf(&b, " keepalive=%v", req.KeepAlive())
	for i, key := range trackedKeys {
		fmt.Fprintf(&b, " %s:%q", key, req.Headers.Value(1<<i))
	}
	return b.String()
}

// manyFieldsRequest is a GET whose head carries n distinct header fields.
func manyFieldsRequest(n int) string {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "X-Field-%d: %d\r\n", i, i)
	}
	b.WriteString("\r\n")
	return b.String()
}

// FuzzParseRequestMatchesOracle checks ParseRequest against
// parseRequestOracle on arbitrary bytes: the same acceptance, the same
// errors and the same parsed request.
func FuzzParseRequestMatchesOracle(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a?b HTTP/1.0\r\nConnection: keep-alive\r\nHost: y\r\n\r\n",
		"GET  / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1 \r\n\r\n",
		"GET /  HTTP/1.1\r\n\r\n",
		"GET\r\n\r\n",
		"GET /\r\n\r\n",
		" GET / HTTP/1.1\r\n\r\n",
		"\r\nGET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nA: 1\rB: 2\r\n\r\n",
		"GET / HTTP/1.1\r\nA: 1\nB: 2\r\n\r\n",
		"GET / HTTP/1.1\r\nbad line\r\n\r\n",
		"GET / HTTP/1.1\r\nX-A: 1\r\nX-A: 2\r\n\r\n",
		"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET / HTTP/1.1\r\n\r\n",
		"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"GET /%2e%2e/x HTTP/1.1\r\n\r\n",
		"GET /a%00 HTTP/1.1\r\n\r\n",
		"POST /a HTTP/1.1\r\ncontent-length: 1\r\nContent-Length: 1\r\n\r\nx",
		"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nE: 5\r\na: 6\r\n\r\n",
		"GET / HTTP/1.1" + strings.Repeat("\r\nX: y", MaxHeaderFields) + "\r\n\r\n",
		"GET / HTTP/1.1" + strings.Repeat("\r\nX: y", MaxHeaderFields+1) + "\r\n\r\n",
		"G@T / HTTP/1.1 x\r\n\r\n",
		"GET /hot/6b8b4567.html HTTP/1.1\r\nHost: nsbench\r\n\r\n",
		"GET /a HTTP/1.1\r\nConnection: close\r\n\r\nGET /a HTTP/1.1\r\nRange: bytes=0-4\r\n\r\n",
		// Bytes a class table could misfile: >= 0x80, NUL and DEL in the
		// method, a header name and the target.
		"G\x80T / HTTP/1.1\r\n\r\n",
		"GE\x00 / HTTP/1.1\r\n\r\n",
		"GET\x7f / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nX\xffY: 1\r\n\r\n",
		"GET / HTTP/1.1\r\nX\x00: 1\r\n\r\n",
		"GET / HTTP/1.1\r\n\x7f: 1\r\n\r\n",
		"GET /\x80\xff HTTP/1.1\r\n\r\n",
		"GET /a\x00b HTTP/1.1\r\n\r\n",
		"GET /\x7f?\x80 HTTP/1.1\r\n\r\n",
		// A bare CR inside a value and in a name, and an obs-fold line.
		"GET / HTTP/1.1\r\nA: x\ry\r\n\r\n",
		"GET / HTTP/1.1\r\nA\rB: x\r\n\r\n",
		"GET / HTTP/1.1\r\nA: x\r\n y\r\n\r\n",
		// Targets the walk must hand to decodePath or CleanPath.
		"GET /a% HTTP/1.1\r\n\r\n",
		"GET /a%2 HTTP/1.1\r\n\r\n",
		"GET /%2e%2e HTTP/1.1\r\n\r\n",
		"GET //a//b HTTP/1.1\r\n\r\n",
		"GET /a/./b HTTP/1.1\r\n\r\n",
		"GET /a/.. HTTP/1.1\r\n\r\n",
		"GET /a/.b/..c/ HTTP/1.1\r\n\r\n",
		"GET /a/?x=/../ HTTP/1.1\r\n\r\n",
		// Tracked names in odd case, and a connection option list with
		// odd case and spacing.
		"POST /a HTTP/1.1\r\ncontent-LENGTH: 2\r\n\r\nab",
		"GET / HTTP/1.1\r\nRANGE: bytes=0-1\r\nif-MODIFIED-since: x\r\n\r\n",
		"GET / HTTP/1.1\r\nContent\rLength: 2\r\n\r\nab",
		"GET / HTTP/1.0\r\nConnection: Close , keep-alive\r\n\r\n",
		"GET / HTTP/1.1\r\nConnection: Close , keep-alive\r\n\r\n",
		// A 5th field spills the inline fields, and a 33-line head.
		"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nE: 5\r\n\r\n",
		manyFieldsRequest(33),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := requestString(ParseRequest(data))
		want := requestString(parseRequestOracle(data))
		if got != want {
			t.Fatalf("ParseRequest(%q)\n got %s\nwant %s", data, got, want)
		}
	})
}

// parseRequestAllocBudget is the ceiling for parsing the pipelined
// benchmark's request shape: the head string that every field slices, and
// the Request, which holds up to four header fields inline. A request
// handed back with ReleaseRequest is reused, so a recycled parse costs
// the head string alone (recycledParseAllocBudget).
const (
	parseRequestAllocBudget  = 2
	recycledParseAllocBudget = 1
)

func TestParseRequestAllocs(t *testing.T) {
	wire := []byte("GET /docs/dir1/class2_5.html HTTP/1.1\r\nHost: nsbench\r\n\r\n")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, n, err := ParseRequest(wire); n != len(wire) || err != nil {
			t.Fatalf("n=%d err=%v", n, err)
		}
	})
	if allocs > parseRequestAllocBudget {
		t.Fatalf("ParseRequest: %.0f allocs/op, budget %d", allocs, parseRequestAllocBudget)
	}
	recycled := testing.AllocsPerRun(1000, func() {
		req, n, err := ParseRequest(wire)
		if n != len(wire) || err != nil {
			t.Fatalf("n=%d err=%v", n, err)
		}
		ReleaseRequest(req)
	})
	if recycled > recycledParseAllocBudget {
		t.Fatalf("recycled ParseRequest: %.0f allocs/op, budget %d", recycled, recycledParseAllocBudget)
	}
	t.Logf("ParseRequest: %.0f allocs/op (budget %d), recycled %.0f (budget %d)",
		allocs, parseRequestAllocBudget, recycled, recycledParseAllocBudget)
}

// mapHeader is Header as it was before the fields left the map: values
// in a map under canonical keys, plus a key slice for insertion order. It
// is the reference FuzzHeaderMatchesMap and parseRequestOracle check the
// field list against.
type mapHeader struct {
	keys []string
	vals map[string]string
}

func (h *mapHeader) Set(key, value string) {
	if h.vals == nil {
		h.vals = make(map[string]string)
	}
	ck := canonical(key)
	if _, exists := h.vals[ck]; !exists {
		h.keys = append(h.keys, ck)
	}
	h.vals[ck] = value
}

func (h *mapHeader) Add(key, value string) {
	if h.vals == nil {
		h.vals = make(map[string]string)
	}
	ck := canonical(key)
	if prev, exists := h.vals[ck]; exists {
		h.vals[ck] = prev + ", " + value
		return
	}
	h.keys = append(h.keys, ck)
	h.vals[ck] = value
}

func (h *mapHeader) Get(key string) string { return h.vals[canonical(key)] }

func (h *mapHeader) Has(key string) bool {
	_, ok := h.vals[canonical(key)]
	return ok
}

func (h *mapHeader) Len() int { return len(h.keys) }

func (h *mapHeader) Each(f func(key, value string)) {
	for _, k := range h.keys {
		f(k, h.vals[k])
	}
}

func (h *mapHeader) Reset() {
	h.keys = h.keys[:0]
	clear(h.vals)
}

// FuzzHeaderMatchesMap runs one random sequence of Set, Add, Get, Has,
// Len, Each and Reset calls on a Header and on mapHeader: every call must
// return the same on both (a Get of a tracked key also asks Value), and
// Each must visit the same fields in the same order. Each input byte pair
// is one call: the operation, then the key and value. The keys repeat
// under different spellings so that replacing, joining and canonical
// lookups all happen, and every field the Header's mask tracks comes in
// two of them, so each answer the mask gives without a scan is checked
// too.
func FuzzHeaderMatchesMap(f *testing.F) {
	keys := []string{
		"Host", "host", "HOST", "Content-Length", "content-length", "CONTENT-length",
		"X-A", "x-a", "X-b", "a", "A", "-x", "x--y", "Range", "if-modified-since",
		"range", "If-Modified-Since", "Connection", "CONNECTION", "Transfer-Encoding",
		"transfer-encoding", "Date", "date", "Server", "sERVER",
	}
	vals := []string{"", "1", "0", "close", "bytes=0-1", "a, b"}
	f.Add([]byte{0, 0, 1, 1, 2, 3, 3, 4, 5, 0})
	f.Add([]byte{1, 3, 1, 4, 1, 5, 6, 0, 0, 6, 2, 0})
	f.Add([]byte{0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 4, 7, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Longer sequences only grow the joined values.
		ops = ops[:min(len(ops), 256)]
		var got Header
		var want mapHeader
		each := func(h interface{ Each(func(k, v string)) }) []field {
			var fs []field
			h.Each(func(k, v string) { fs = append(fs, field{k, v}) })
			return fs
		}
		for i := 0; i+1 < len(ops); i += 2 {
			key := keys[int(ops[i+1])%len(keys)]
			val := vals[int(ops[i+1])/len(keys)%len(vals)]
			switch ops[i] % 7 {
			case 0:
				got.Set(key, val)
				want.Set(key, val)
			case 1:
				got.Add(key, val)
				want.Add(key, val)
			case 2:
				if g, w := got.Get(key), want.Get(key); g != w {
					t.Fatalf("call %d: Get(%q) = %q, map %q", i/2, key, g, w)
				}
				if f := trackedField(key); f != 0 {
					if g, w := got.Value(f), want.Get(key); g != w {
						t.Fatalf("call %d: Value(%q) = %q, map %q", i/2, key, g, w)
					}
				}
			case 3:
				if g, w := got.Has(key), want.Has(key); g != w {
					t.Fatalf("call %d: Has(%q) = %v, map %v", i/2, key, g, w)
				}
			case 4:
				if g, w := got.Len(), want.Len(); g != w {
					t.Fatalf("call %d: Len() = %d, map %d", i/2, g, w)
				}
			case 5:
				if g, w := each(&got), each(&want); !slices.Equal(g, w) {
					t.Fatalf("call %d: Each visits\n %q\nmap\n %q", i/2, g, w)
				}
			case 6:
				got.Reset()
				want.Reset()
			}
		}
		if g, w := each(&got), each(&want); !slices.Equal(g, w) {
			t.Fatalf("final Each visits\n %q\nmap\n %q", g, w)
		}
	})
}
