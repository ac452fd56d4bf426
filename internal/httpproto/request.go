// Package httpproto is the handcrafted HTTP protocol library of COPS-HTTP:
// an incremental HTTP/1.0-1.1 request parser, a response encoder, and the
// small lookup tables (status text, MIME types) a static-content web
// server needs. It corresponds to the 449 NCSS of "HTTP protocol code" in
// Table 4 — deliberately independent of both the framework and the server
// logic, so it plugs into the N-Server pipeline as the Decode Request /
// Encode Reply hook methods.
package httpproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// Limits enforced by the parser.
const (
	// MaxHeaderBytes bounds the request line plus all header lines.
	MaxHeaderBytes = 16 << 10
	// MaxHeaderFields bounds the header field lines of one request,
	// counted before repeated keys combine (Apache's LimitRequestFields
	// default). Header lookups scan their fields, so without it a head of
	// thousands of short distinct names would cost quadratic time to
	// parse.
	MaxHeaderFields = 100
	// MaxBodyBytes bounds an announced request body.
	MaxBodyBytes = 1 << 20
)

// Parse errors.
var (
	ErrHeaderTooLarge = errors.New("httpproto: header block exceeds limit")
	ErrBadRequestLine = errors.New("httpproto: malformed request line")
	ErrBadHeader      = errors.New("httpproto: malformed header line")
	ErrBadVersion     = errors.New("httpproto: unsupported protocol version")
	ErrBodyTooLarge   = errors.New("httpproto: request body exceeds limit")
	ErrBadPath        = errors.New("httpproto: malformed request path")
)

// Request is one parsed HTTP request. A Request from ParseRequest keeps
// its first few header fields in inline storage that Headers points at,
// and comes from a pool, so a typical request costs no allocation beside
// the head string once its owner hands it back with ReleaseRequest. A
// Request must therefore not be copied by value: the copy's Headers would
// share the original's inline fields.
type Request struct {
	Method  string
	Target  string // raw request-target as received
	Path    string // decoded, cleaned absolute path
	Query   string // raw query string (after '?'), if any
	Proto   string // "HTTP/1.0" or "HTTP/1.1"
	Headers Header
	Body    []byte
	// Refuse, when non-zero, is the status the server must answer with
	// before closing the connection: the request head was well-formed
	// enough to respond to, but it announced its body with a mechanism
	// this parser does not implement (Transfer-Encoding), so the rest of
	// the stream cannot be framed. The parser consumes every remaining
	// buffered byte so none of the unframeable body is replayed as a
	// pipelined request.
	Refuse int

	inline [4]field // Headers' storage until a fifth field spills it
}

// KeepAlive reports whether the connection persists after this request
// under the protocol's defaults and the Connection header, parsed as the
// comma-separated option list of RFC 9112 §9.6 — so "close, te" closes an
// HTTP/1.1 connection and "keep-alive, upgrade" keeps an HTTP/1.0 one
// alive. A refused request never persists: its body was never framed, so
// the bytes that follow it are not a request boundary.
func (r *Request) KeepAlive() bool {
	if r.Refuse != 0 {
		return false
	}
	conn := r.Headers.Value(FieldConnection)
	if r.Proto == "HTTP/1.1" {
		return !hasConnOption(conn, "close")
	}
	return hasConnOption(conn, "keep-alive") // HTTP/1.0 defaults to close
}

// hasConnOption reports whether a Connection field value, read as a
// comma-separated option list, contains opt (ASCII case-insensitive).
// Slicing plus EqualFold keeps the scan allocation-free on the hot path.
func hasConnOption(list, opt string) bool {
	for len(list) > 0 {
		elem := list
		if i := strings.IndexByte(list, ','); i >= 0 {
			elem, list = list[:i], list[i+1:]
		} else {
			list = ""
		}
		if strings.EqualFold(trimOWS(elem), opt) {
			return true
		}
	}
	return false
}

// trimOWS trims optional whitespace (SP / HTAB — and only those; other
// control bytes are not OWS and must survive to fail validation).
func trimOWS(s string) string {
	i, j := 0, len(s)
	for i < j && byteClass[s[i]]&cOWS != 0 {
		i++
	}
	for j > i && byteClass[s[j-1]]&cOWS != 0 {
		j--
	}
	return s[i:j]
}

// The byte classes of the head walk. byteClass[c] holds the bit of every
// class byte c belongs to, so each question the walk asks of a byte is one
// load and one test. A lone LF is in no class that ends a run: only CRLF
// ends a line, so a bare LF (or a CR not followed by LF) is an ordinary
// byte of the line it sits in.
const (
	cTchar    uint8 = 1 << iota // RFC 9110 tchar: a byte of the method
	cOWS                        // SP or HTAB
	cPathStop                   // ends a plain run of the path: '%', '?' or '/'
	cNameStop                   // ends a header name: ':', SP, HTAB or CR
	cUpper                      // 'A'-'Z'
	cLower                      // 'a'-'z'
)

// byteClass classifies every byte; lower maps 'A'-'Z' to lower case and
// every other byte to itself.
var byteClass, lower = func() (class [256]uint8, lower [256]byte) {
	for c := 0; c < 256; c++ {
		lower[c] = byte(c)
		switch {
		case 'A' <= c && c <= 'Z':
			class[c] |= cTchar | cUpper
			lower[c] = byte(c) + 'a' - 'A'
		case 'a' <= c && c <= 'z':
			class[c] |= cTchar | cLower
		case '0' <= c && c <= '9', strings.IndexByte("!#$%&'*+-.^_`|~", byte(c)) >= 0:
			class[c] |= cTchar
		}
	}
	for _, c := range []byte(" \t") {
		class[c] |= cOWS | cNameStop
	}
	for _, c := range []byte("%?/") {
		class[c] |= cPathStop
	}
	class['\r'] |= cNameStop
	class[':'] |= cNameStop
	return class, lower
}()

// requestPool recycles the Requests ParseRequest returns (see
// ReleaseRequest).
var requestPool = sync.Pool{
	New: func() any { return new(Request) },
}

// ReleaseRequest zeroes r and returns it to the pool ParseRequest draws
// from. Only the request's one owner may release it, once nothing will
// read the struct again; strings taken from it stay valid, since they
// share the head string, not the struct. A request never released is
// simply garbage collected.
func ReleaseRequest(r *Request) {
	*r = Request{}
	requestPool.Put(r)
}

// ParseRequest attempts to parse one complete request from buf. It
// returns the request and the number of bytes consumed; n == 0 with a nil
// error means buf does not yet hold a complete request (read more). A
// non-nil error means the stream is unrecoverable and the connection
// should close. The request comes from a pool; its owner may hand it back
// with ReleaseRequest.
//
// The head's end, its first CRLFCRLF, is found eight bytes at a time
// (indexCRLF), within its first MaxHeaderBytes+4 bytes. Then one walk
// covers the complete head, asking byteClass about each byte it stops at:
//   - the request line splits at its two spaces; the method must be all
//     tchar, and the target is walked once (splitTarget) for its '%', '?'
//     and dot or empty segments, so a plain target is used as is and only
//     an escaped or unclean one is decoded or cleaned;
//   - each header line's name, checked for canonical case on the way and
//     then matched against the tracked fields by its length and
//     case-folded bytes, and its value, skipped a word at a time to its
//     CRLF. Each field goes straight into the request's Header.
//
// Errors come in the order of the line-by-line reference the fuzz tests
// hold it to: the request line's, then the first bad or excess header
// line's, then the body's.
func ParseRequest(buf []byte) (*Request, int, error) {
	b := buf[:min(len(buf), MaxHeaderBytes+4)]
	headerEnd, lineEnd, lines := indexHeadEnd(b)
	if headerEnd < 0 {
		if len(buf) > MaxHeaderBytes {
			return nil, 0, ErrHeaderTooLarge
		}
		return nil, 0, nil
	}
	consumed := headerEnd + 4

	// One string copy of the head backs every field. The walk reads w,
	// the same bytes plus the last line's CRLF, so every line it meets
	// ends in CRLF, and slices head at the offsets it finds.
	head := string(buf[:headerEnd])
	w := buf[:headerEnd+2]
	p := lineEnd
	req, err := parseRequestLine(head[:p])
	if err != nil {
		return nil, 0, err
	}
	h := &req.Headers
	if lines > len(req.inline) {
		h.fields = make([]field, 0, min(lines, MaxHeaderFields))
	}
	// Repeated field lines combine into a comma list, as Header.Add does,
	// so a duplicated header can never silently last-win. Only OWS is
	// trimmed; stray control bytes stay in the value and fail later
	// validation.
	for n := 0; p+2 < len(w); n++ {
		p += 2
		if n == MaxHeaderFields {
			ReleaseRequest(req)
			return nil, 0, ErrHeaderTooLarge
		}
		colon, canon := scanName(w, p)
		if w[colon] != ':' || colon == p {
			ReleaseRequest(req)
			return nil, 0, fmt.Errorf("%w: %q", ErrBadHeader, w[p:indexCRLF(w, colon)])
		}
		v := colon + 1
		for byteClass[w[v]]&cOWS != 0 {
			v++
		}
		end := indexCRLF(w, v)
		ve := end
		for ve > v && byteClass[w[ve-1]]&cOWS != 0 {
			ve--
		}
		name := head[p:colon]
		key, f := name, trackedField(name)
		switch {
		case f != 0:
			key = trackedKeys[bitIndex(f)]
		case !canon:
			key = canonicalize(name)
		}
		h.add(key, f, head[v:ve])
		p = end
	}

	// Transfer-Encoding is not implemented: the head is answerable but
	// the body is unframeable, so refuse with 501 and poison the rest of
	// the buffered stream (whatever follows could be body bytes that must
	// never be parsed as the next pipelined request). When Content-Length
	// is also present this still refuses: honoring the length while a
	// Transfer-Encoding stands is the classic TE.CL desync.
	if h.tracked&FieldTransferEncoding != 0 {
		req.Refuse = 501
		return req, len(buf), nil
	}

	// Optional body, announced by Content-Length.
	if cl := h.Value(FieldContentLength); cl != "" {
		n, ok := parseContentLength(cl)
		if !ok {
			ReleaseRequest(req)
			return nil, 0, fmt.Errorf("%w: bad Content-Length %q", ErrBadHeader, cl)
		}
		if n > MaxBodyBytes {
			ReleaseRequest(req)
			return nil, 0, ErrBodyTooLarge
		}
		if int64(len(buf)-consumed) < n {
			ReleaseRequest(req)
			return nil, 0, nil // body incomplete
		}
		req.Body = append([]byte(nil), buf[consumed:consumed+int(n)]...)
		consumed += int(n)
	}
	return req, consumed, nil
}

// indexHeadEnd returns the offset of the first CRLFCRLF in b, the end of
// a head, the offset of the first CRLF, the end of its request line, and
// how many CRLFs come between them: the head's header lines. It returns
// end -1 while b holds no CRLFCRLF.
func indexHeadEnd(b []byte) (end, lineEnd, lines int) {
	lineEnd = indexCRLF(b, 0)
	for i := lineEnd; ; lines++ {
		if i < 0 || i+3 >= len(b) {
			return -1, 0, 0
		}
		if b[i+2] == '\r' && b[i+3] == '\n' {
			return i, lineEnd, lines
		}
		i = indexCRLF(b, i+2)
	}
}

// scanName walks a header line's name from s, in a head whose every
// line ends in CRLF. It returns the offset of the byte that ends it (a
// colon, SP, HTAB, or the CR of the line's CRLF; a lone CR is a byte of
// the name) and whether the name is in Canonical-Dash-Form: an
// upper-case letter first and after each '-', lower-case letters
// elsewhere.
func scanName(w []byte, s int) (end int, canon bool) {
	var miscase uint8 // the class of a letter found where the other belongs
	wrong := cLower
	i := s
	for ; i < len(w); i++ {
		c := w[i]
		k := byteClass[c]
		if k&cNameStop != 0 && (c != '\r' || w[i+1] == '\n') {
			break
		}
		miscase |= k & wrong
		wrong = cUpper
		if c == '-' {
			wrong = cLower
		}
	}
	return i, miscase == 0
}

// Word-at-a-time constants for indexCRLF: x has a zero byte exactly when
// (x - lsbs) &^ x & msbs != 0, and the lowest set bit of that mask marks
// the first one; x = w ^ crs is zero where the word w holds CR.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
	crs  = '\r' * lsbs
)

// indexCRLF returns the offset of the first CRLF in b at or after i, or
// -1. It checks the byte after each CR, so a lone CR or LF stays part of
// its line.
func indexCRLF(b []byte, i int) int {
	for {
		if i = indexCR(b, i); i+1 >= len(b) {
			return -1
		}
		if b[i+1] == '\n' {
			return i
		}
		i++
	}
}

// indexCR returns the offset of the first CR in b at or after i, or
// len(b). It reads eight bytes at a time while eight remain.
func indexCR(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:]) ^ crs
		if m := (x - lsbs) &^ x & msbs; m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for i < len(b) && b[i] != '\r' {
		i++
	}
	return i
}

// parseContentLength validates a Content-Length field value. Duplicate
// Content-Length lines arrive comma-joined (Header.Add), and RFC 9110
// §8.6 permits such a list only when every element is the same valid
// value; differing elements are a smuggling vector and reject the
// request. ok is false when the value violates the grammar.
func parseContentLength(v string) (int64, bool) {
	first, rest := "", v
	var n int64 = -1
	for {
		elem := rest
		if i := strings.IndexByte(rest, ','); i >= 0 {
			elem, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		elem = trimOWS(elem)
		if first == "" {
			m, ok := parseCLValue(elem)
			if !ok {
				return -1, false
			}
			first, n = elem, m
		} else if elem != first {
			return -1, false
		}
		if rest == "" {
			return n, true
		}
	}
}

// parseCLValue parses one 1*DIGIT Content-Length element: no sign, no
// whitespace, no base prefix — strconv.Atoi's tolerance of "+5" is
// exactly the gap desync attacks walk through. Oversized values clamp to
// MaxBodyBytes+1 (well-formed, just beyond the cap) so the caller can
// report ErrBodyTooLarge rather than a grammar error.
func parseCLValue(s string) (int64, bool) {
	if s == "" {
		return -1, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return -1, false
		}
		if n > MaxBodyBytes { // already oversized; keep validating digits
			continue
		}
		n = n*10 + int64(c-'0')
	}
	if n > MaxBodyBytes {
		return MaxBodyBytes + 1, true
	}
	return n, true
}

// parseRequestLine parses "method SP target SP proto": exactly two
// spaces, so a third one (a doubled space included) fails here and an
// empty field fails its own check below.
func parseRequestLine(line string) (*Request, error) {
	sp1 := strings.IndexByte(line, ' ')
	sp2 := -1
	if sp1 >= 0 {
		if sp2 = strings.IndexByte(line[sp1+1:], ' '); sp2 >= 0 {
			sp2 += sp1 + 1
		}
	}
	if sp2 < 0 {
		return nil, fmt.Errorf("%w: %q", ErrBadRequestLine, line)
	}
	method, target, proto := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	// A valid version holds no space, so only an invalid one is searched
	// for the third.
	version := proto == "HTTP/1.0" || proto == "HTTP/1.1"
	if !version && strings.IndexByte(proto, ' ') >= 0 {
		return nil, fmt.Errorf("%w: %q", ErrBadRequestLine, line)
	}
	if method == "" || !allTchar(method) {
		return nil, fmt.Errorf("%w: bad method %q", ErrBadRequestLine, method)
	}
	if !version {
		return nil, fmt.Errorf("%w: %q", ErrBadVersion, proto)
	}
	if target == "" || target[0] != '/' {
		return nil, fmt.Errorf("%w: target %q", ErrBadRequestLine, target)
	}
	path, query, escaped, unclean := splitTarget(target)
	if escaped {
		decoded, err := decodePath(path)
		if err != nil {
			return nil, err
		}
		path = CleanPath(decoded)
	} else if unclean {
		path = CleanPath(path)
	}
	req := requestPool.Get().(*Request)
	req.Method, req.Target, req.Path, req.Query, req.Proto = method, target, path, query, proto
	req.Headers.fields = req.inline[:0]
	return req, nil
}

// splitTarget walks a target that starts with '/' once, asking byteClass
// only about the bytes that end a plain run. It returns the raw path and
// the query (split at the first '?'), and whether the path holds a '%'
// escape or a segment isCleanPath refuses, so a plain path, the common
// case, is neither decoded nor cleaned.
func splitTarget(target string) (path, query string, escaped, unclean bool) {
	i, seg := 1, 1 // seg starts the current path segment
	for {
		for i < len(target) && byteClass[target[i]]&cPathStop == 0 {
			i++
		}
		var c byte // the stop byte; 0 at the end of the target
		if i < len(target) {
			c = target[i]
		}
		if c == '%' {
			escaped = true
			i++
			continue
		}
		// A dot segment, or an empty one before another slash, is what
		// isCleanPath refuses; an empty last segment is a trailing slash.
		if n := i - seg; n == 1 && target[seg] == '.' || n == 2 && target[seg:i] == ".." || n == 0 && c == '/' {
			unclean = true
		}
		if c != '/' {
			break
		}
		i++
		seg = i
	}
	if i < len(target) {
		return target[:i], target[i+1:], escaped, unclean
	}
	return target, "", escaped, unclean
}

// allTchar reports whether every byte of s is a tchar.
func allTchar(s string) bool {
	for i := 0; i < len(s); i++ {
		if byteClass[s[i]]&cTchar == 0 {
			return false
		}
	}
	return true
}

// decodePath percent-decodes a request path. Two decoded bytes are
// rejected outright: NUL (%00), which C-string filesystem layers would
// truncate at, and "/" (%2F), which would materialize a new path segment
// after the traversal checks already ran on the encoded form.
func decodePath(p string) (string, error) {
	if !strings.Contains(p, "%") {
		return p, nil
	}
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		if p[i] != '%' {
			b.WriteByte(p[i])
			continue
		}
		if i+2 >= len(p) {
			return "", fmt.Errorf("%w: truncated escape in %q", ErrBadPath, p)
		}
		hi, err1 := unhex(p[i+1])
		lo, err2 := unhex(p[i+2])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("%w: bad escape in %q", ErrBadPath, p)
		}
		switch c := hi<<4 | lo; c {
		case 0:
			return "", fmt.Errorf("%w: encoded NUL in %q", ErrBadPath, p)
		case '/':
			return "", fmt.Errorf("%w: encoded slash in %q", ErrBadPath, p)
		default:
			b.WriteByte(c)
		}
		i += 2
	}
	return b.String(), nil
}

func unhex(c byte) (byte, error) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', nil
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, nil
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, nil
	}
	return 0, ErrBadPath
}

// CleanPath normalizes an absolute request path: it collapses duplicate
// slashes, resolves "." and "..", and never escapes the root — the
// document-root traversal defence every static file server needs. An
// already clean path, the common case, is returned as is, without
// allocating.
func CleanPath(p string) string {
	if isCleanPath(p) {
		return p
	}
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
		// Preserve directory-ness only for real directories requests.
		if cleaned != "/" {
			cleaned += "/"
		}
	}
	return cleaned
}

// isCleanPath reports whether CleanPath would return p unchanged: p is
// absolute, and no segment is empty (bar one trailing slash), "." or "..".
func isCleanPath(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		switch p[start:i] {
		case ".", "..":
			return false
		case "":
			if i < len(p) {
				return false
			}
		}
		start = i + 1
	}
	return true
}
