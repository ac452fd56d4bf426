// Package httpproto is the handcrafted HTTP protocol library of COPS-HTTP:
// an incremental HTTP/1.0-1.1 request parser, a response encoder, and the
// small lookup tables (status text, MIME types) a static-content web
// server needs. It corresponds to the 449 NCSS of "HTTP protocol code" in
// Table 4 — deliberately independent of both the framework and the server
// logic, so it plugs into the N-Server pipeline as the Decode Request /
// Encode Reply hook methods.
package httpproto

import (
	"bytes"
	"errors"
	"fmt"
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
	conn := r.Headers.Get("Connection")
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
	for i < j && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	for j > i && (s[j-1] == ' ' || s[j-1] == '\t') {
		j--
	}
	return s[i:j]
}

// Header is a case-insensitive list of header fields in insertion order,
// each stored once under its canonical key. Lookups scan the list: a
// request carries a handful of fields (ParseRequest admits at most
// MaxHeaderFields lines) and a response fewer than ten, so a scan beats
// hashing and the list needs no allocation of its own when it points at a
// Request's inline storage. The fields the server branches on are also
// tracked in a bitmask (see trackedBit), kept by Set, Add and Reset, so
// asking for one that is absent — the answer on almost every request —
// costs no scan. The zero Header is ready to use.
type Header struct {
	fields []field
	// tracked holds the bit of every tracked field present in fields.
	tracked uint8
}

// field is one header field under its canonical key.
type field struct{ key, val string }

// The tracked fields: those a request or response is asked about on
// every serve, mostly to find them absent.
const (
	trackConnection uint8 = 1 << iota
	trackContentLength
	trackTransferEncoding
	trackRange
	trackIfModifiedSince
	trackDate
	trackServer
)

// trackedBit returns the bit of canonical key ck, or 0 for a field the
// mask does not track.
func trackedBit(ck string) uint8 {
	switch ck {
	case "Connection":
		return trackConnection
	case "Content-Length":
		return trackContentLength
	case "Transfer-Encoding":
		return trackTransferEncoding
	case "Range":
		return trackRange
	case "If-Modified-Since":
		return trackIfModifiedSince
	case "Date":
		return trackDate
	case "Server":
		return trackServer
	}
	return 0
}

// lookupKey returns key's canonical form and tracked bit. A tracked key
// already in canonical form, the way the server spells every key it asks
// for, skips canonical.
func lookupKey(key string) (ck string, bit uint8) {
	if bit = trackedBit(key); bit != 0 {
		return key, bit
	}
	ck = canonical(key)
	return ck, trackedBit(ck)
}

// NewHeader returns an empty header; the zero Header is equally ready.
func NewHeader() Header { return Header{} }

// index returns the position of canonical key ck with tracked bit bit,
// or -1. A tracked key the mask says is absent costs no scan.
func (h *Header) index(ck string, bit uint8) int {
	if bit != 0 && h.tracked&bit == 0 {
		return -1
	}
	for i := range h.fields {
		if h.fields[i].key == ck {
			return i
		}
	}
	return -1
}

// Set stores a header value, replacing any previous value in place.
func (h *Header) Set(key, value string) {
	ck, bit := lookupKey(key)
	if i := h.index(ck, bit); i >= 0 {
		h.fields[i].val = value
		return
	}
	h.fields = append(h.fields, field{ck, value})
	h.tracked |= bit
}

// Add appends a header value: a repeated key extends the stored value as
// a comma-separated list per the RFC 9110 §5.2 combination rule. The
// request parser fills headers through Add so duplicate field lines stay
// visible to later checks — a second Content-Length can then never hide
// behind a last-write-wins Set (the §8.6 smuggling defense).
func (h *Header) Add(key, value string) {
	ck, bit := lookupKey(key)
	if i := h.index(ck, bit); i >= 0 {
		h.fields[i].val += ", " + value
		return
	}
	h.fields = append(h.fields, field{ck, value})
	h.tracked |= bit
}

// Get returns the value for key ("" when absent).
func (h *Header) Get(key string) string {
	if i := h.index(lookupKey(key)); i >= 0 {
		return h.fields[i].val
	}
	return ""
}

// Has reports whether the header is present.
func (h *Header) Has(key string) bool { return h.index(lookupKey(key)) >= 0 }

// Len returns the number of distinct header keys.
func (h *Header) Len() int { return len(h.fields) }

// Each calls f for every header in insertion order.
func (h *Header) Each(f func(key, value string)) {
	for _, kv := range h.fields {
		f(kv.key, kv.val)
	}
}

// Reset empties the header for reuse, keeping the field slice's capacity
// (the Response pool relies on this to make header writes free in steady
// state).
func (h *Header) Reset() {
	clear(h.fields)
	h.fields = h.fields[:0]
	h.tracked = 0
}

// canonical normalizes a header key to Canonical-Dash-Form. Keys that are
// already canonical — every key the server itself sets — are returned
// unchanged without allocating.
func canonical(key string) string {
	upper := true
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (upper && 'a' <= c && c <= 'z') || (!upper && 'A' <= c && c <= 'Z') {
			return canonicalize(key)
		}
		upper = c == '-'
	}
	return key
}

// canonicalize is the allocating slow path of canonical.
func canonicalize(key string) string {
	b := []byte(key)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - ('a' - 'A')
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return string(b)
}

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

// lineSpan locates one header field line of a head by its offsets in
// the head: the colon that ends the key and the CRLF that ends the line.
// The line starts two bytes past the previous line's end.
type lineSpan struct{ colon, end int32 }

// inlineSpans is how many header lines ParseRequest locates in stack
// storage; a head with more lines spills its spans to the heap.
const inlineSpans = 32

// ParseRequest attempts to parse one complete request from buf. It
// returns the request and the number of bytes consumed; n == 0 with a nil
// error means buf does not yet hold a complete request (read more). A
// non-nil error means the stream is unrecoverable and the connection
// should close. The request comes from a pool; its owner may hand it back
// with ReleaseRequest.
func ParseRequest(buf []byte) (*Request, int, error) {
	// One pass walks the head line by line: each CRLF is found as the
	// walk reaches it, and each header line's key is checked on the way,
	// up to the empty line that ends the head. A head that fits the limit
	// ends within its first MaxHeaderBytes+4 bytes, so the walk stops
	// there. A malformed line is only reported once the head is complete:
	// until then the request may still be read whole.
	walk := buf[:min(len(buf), MaxHeaderBytes+4)]
	var inline [inlineSpans]lineSpan
	lines := inline[:0]
	var bad []byte // the first malformed header line
	tooMany := false
	reqEnd, headerEnd := -1, -1
	for start := 0; headerEnd < 0; {
		end := indexCRLF(walk, start)
		if end < 0 {
			break
		}
		switch line := walk[start:end]; {
		case reqEnd < 0:
			reqEnd = end
		case len(line) == 0:
			headerEnd = start - 2
		case bad != nil || tooMany:
			// Only the first bad line is reported.
		case len(lines) == MaxHeaderFields:
			tooMany = true
		default:
			if colon := keyEnd(line); colon >= 0 {
				lines = append(lines, lineSpan{int32(start + colon), int32(end)})
			} else {
				bad = line
			}
		}
		start = end + 2
	}
	if headerEnd < 0 {
		if len(buf) > MaxHeaderBytes {
			return nil, 0, ErrHeaderTooLarge
		}
		return nil, 0, nil
	}
	consumed := headerEnd + 4

	// One string copy of the head backs every field, sliced at the
	// offsets the walk found.
	head := string(buf[:headerEnd])
	req, err := parseRequestLine(head[:reqEnd])
	if err != nil {
		return nil, 0, err
	}
	if tooMany || bad != nil {
		ReleaseRequest(req)
		if tooMany {
			return nil, 0, ErrHeaderTooLarge
		}
		return nil, 0, fmt.Errorf("%w: %q", ErrBadHeader, bad)
	}
	// Add, not Set: repeated field lines combine into a comma list so a
	// duplicated header can never silently last-win. Only OWS is trimmed;
	// stray control bytes stay in the value and fail later validation.
	start := reqEnd + 2
	for _, l := range lines {
		req.Headers.Add(head[start:l.colon], trimOWS(head[l.colon+1:l.end]))
		start = int(l.end) + 2
	}

	// Transfer-Encoding is not implemented: the head is answerable but
	// the body is unframeable, so refuse with 501 and poison the rest of
	// the buffered stream (whatever follows could be body bytes that must
	// never be parsed as the next pipelined request). When Content-Length
	// is also present this still refuses: honoring the length while a
	// Transfer-Encoding stands is the classic TE.CL desync.
	if req.Headers.Has("Transfer-Encoding") {
		req.Refuse = 501
		return req, len(buf), nil
	}

	// Optional body, announced by Content-Length.
	if cl := req.Headers.Get("Content-Length"); cl != "" {
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

// indexCRLF returns the offset of the first CRLF in b at or after from,
// or -1. It looks for each LF and checks the byte before it, so a lone
// CR or LF stays part of its line.
func indexCRLF(b []byte, from int) int {
	for from < len(b) {
		i := bytes.IndexByte(b[from:], '\n')
		if i < 0 {
			return -1
		}
		if i += from; i > from && b[i-1] == '\r' {
			return i - 1
		}
		from = i + 1
	}
	return -1
}

// keyEnd returns the offset of the colon that ends a header line's key,
// or -1 when the line has no colon, its key is empty or the key holds a
// space or tab.
func keyEnd(line []byte) int {
	for i, c := range line {
		switch c {
		case ':':
			if i == 0 {
				return -1
			}
			return i
		case ' ', '\t':
			return -1
		}
	}
	return -1
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
	if method == "" || !isToken(method) {
		return nil, fmt.Errorf("%w: bad method %q", ErrBadRequestLine, method)
	}
	if !version {
		return nil, fmt.Errorf("%w: %q", ErrBadVersion, proto)
	}
	if target == "" || target[0] != '/' {
		return nil, fmt.Errorf("%w: target %q", ErrBadRequestLine, target)
	}
	rawPath, query := target, ""
	if q := strings.IndexByte(target, '?'); q >= 0 {
		rawPath, query = target[:q], target[q+1:]
	}
	path, err := decodePath(rawPath)
	if err != nil {
		return nil, err
	}
	req := requestPool.Get().(*Request)
	req.Method, req.Target, req.Path, req.Query, req.Proto = method, target, CleanPath(path), query, proto
	req.Headers.fields = req.inline[:0]
	return req, nil
}

// isToken reports whether s is a valid HTTP token (method name).
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
