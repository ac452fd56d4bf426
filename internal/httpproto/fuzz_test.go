package httpproto

import (
	"bytes"
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
