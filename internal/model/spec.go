package model

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/httpproto"
)

// Fate is what the model says happens to the connection after the last
// predicted response.
type Fate int

const (
	// FateOpen: the connection persists; a probe request must still be
	// answered.
	FateOpen Fate = iota
	// FateClosed: every predicted response is delivered, then the server
	// closes. The final response carries Connection: close.
	FateClosed
	// FateTorn: the stream hit unrecoverable framing (malformed request
	// line or header, Content-Length grammar violation, conflicting
	// duplicate Content-Length, oversized body). The server must tear
	// the connection down WITHOUT answering the offending request —
	// responding to bytes it cannot frame is how request smuggling
	// starts. Responses predicted before the tear may be lost to the
	// teardown race, so the observed wire must be a prefix of the
	// predictions followed by EOF.
	FateTorn
)

// String renders the fate for mismatch reports.
func (f Fate) String() string {
	switch f {
	case FateOpen:
		return "open"
	case FateClosed:
		return "closed"
	case FateTorn:
		return "torn"
	}
	return fmt.Sprintf("fate(%d)", int(f))
}

// ExpectedResponse is one predicted response: the fields of the wire
// image the contract fixes. Date and Server headers vary and are not
// modeled.
type ExpectedResponse struct {
	Status int
	Proto  string // echoes the request's protocol version
	Head   bool   // HEAD: no body bytes on the wire
	Body   []byte // exact body (nil for HEAD)
	// BodyLen is the Content-Length the response must advertise — for
	// HEAD, the length the corresponding GET would have carried.
	BodyLen int64
	// Close: the response must carry a "close" Connection option; when
	// false it must not (an HTTP/1.0 keep-alive response carries no
	// Connection header at all — a documented deviation from the
	// Keep-Alive convention, persistence is implied by not closing).
	Close bool
	// Headers are contract-fixed header values (Location, Content-Range,
	// Last-Modified, Content-Type) that must match exactly.
	Headers map[string]string
}

// Expectation is the model's verdict for one connection script.
type Expectation struct {
	Responses []ExpectedResponse
	Fate      Fate
}

// errUnsupported marks scripts outside the model's domain (generator
// invariant violations), not wire mismatches.
type errUnsupported string

func (e errUnsupported) Error() string { return "model: unsupported script: " + string(e) }

// Predict is the executable specification: it maps a connection script
// to the exact wire behavior a conforming server must produce. It is
// written against the documented contract — RFC 9112 framing and
// Connection handling, RFC 9110 Content-Length/Range/conditional
// semantics, and the server's published static-file behavior — and
// deliberately re-derives decisions (token lists, Content-Length
// grammar, range arithmetic) rather than calling the production
// parser's internals, so a parser bug disagrees with the model instead
// of being mirrored by it.
func Predict(site *Site, cs *ConnScript) (Expectation, error) {
	exp, err := predictFraming(site, cs)
	if err != nil {
		return exp, err
	}
	return applyPace(site, cs, exp)
}

// predictFraming is the framing and serving half of the specification:
// everything the byte stream alone determines.
func predictFraming(site *Site, cs *ConnScript) (Expectation, error) {
	var exp Expectation
	for i := range cs.Requests {
		r := &cs.Requests[i]
		if strings.Contains(r.Target, "%") {
			return exp, errUnsupported("percent-escaped targets are not modeled")
		}
		for _, h := range r.Headers {
			if strings.ContainsAny(h.Name(), ":\r\n") || strings.ContainsAny(h.Value(), "\r\n") {
				return exp, errUnsupported("header would not render as one field line")
			}
		}
		if !requestLineOK(r) || !headerLinesOK(r) {
			exp.Fate = FateTorn
			return exp, nil
		}
		// Transfer-Encoding is refused before body framing is even
		// attempted: the head is answerable, the body is not frameable,
		// so the server answers 501, marks Connection: close, and
		// treats the rest of the stream as poisoned. This holds when
		// Content-Length is also present (honoring the length under a
		// standing Transfer-Encoding is the TE.CL desync).
		if len(r.headerValues("Transfer-Encoding")) > 0 {
			er := errorResponse(501, r, true)
			exp.Responses = append(exp.Responses, er)
			exp.Fate = FateClosed
			return exp, nil
		}
		bodyLen, ok, torn := contentLengthOf(r)
		if torn {
			exp.Fate = FateTorn
			return exp, nil
		}
		if !ok && len(r.Body) > 0 {
			return exp, errUnsupported("body without Content-Length")
		}
		if ok && int64(len(r.Body)) != bodyLen {
			return exp, errUnsupported("body length disagrees with Content-Length")
		}
		keep := keepAliveOf(r)
		er := serve(site, r)
		er.Close = !keep
		exp.Responses = append(exp.Responses, er)
		if !keep {
			exp.Fate = FateClosed
			return exp, nil
		}
	}
	exp.Fate = FateOpen
	return exp, nil
}

// paceQuantum is the unit of the pace bands below. The server arms its
// write deadline per bounded chunk of a reply (at least this large), so
// a reader draining under a quarter of it per deadline window cannot
// finish any chunk in time, and one draining four of it never waits on a
// chunk for long.
const paceQuantum = 64 << 10

// applyPace folds the client's read pace into the framing verdict: the
// slow-reader half of the specification. The server's contract
// (slow-reader defense) is drain-rate based, not liveness based: with a
// write deadline armed, each blocking write of a bounded chunk must
// finish within the deadline or the connection is torn down, no matter
// how steadily the peer trickles. The model therefore classifies a pace
// by the bytes it drains per window:
//
//   - starved (at most a quarter paceQuantum per window) with enough
//     response bytes to outlast transport buffering: the write path
//     must stall and the server must tear the connection down — the
//     predictions become a permitted prefix (FateTorn);
//   - comfortably fast (at least four quanta per window): the pace can
//     never stall a write and the framing verdict stands;
//   - tiny streams (under a quarter quantum in total): nothing to
//     stall, the verdict stands at any pace.
//
// Paces between those bands depend on scheduler and buffer luck, so
// they are outside the model's domain, like the generator invariants.
// The fast verdict additionally assumes the drain rate clears the
// transport's writer-wakeup granularity; directed programs keep
// fast-paced totals within one transport buffer on TCP, where the
// kernel wakes blocked writers only per half send buffer.
func applyPace(site *Site, cs *ConnScript, exp Expectation) (Expectation, error) {
	if !cs.Paced() {
		if cs.PaceBytes != 0 || cs.PaceEveryMs != 0 {
			return exp, errUnsupported("pace needs both pace_bytes and pace_every_ms")
		}
		return exp, nil
	}
	if site.WriteTimeout <= 0 {
		// No write deadline: a slow reader just makes the server wait,
		// it cannot change any connection's fate.
		return exp, nil
	}
	perWindow := int64(cs.PaceBytes) * int64(site.WriteTimeout/time.Millisecond) / int64(cs.PaceEveryMs)
	var body int64
	for i := range exp.Responses {
		if !exp.Responses[i].Head {
			body += int64(len(exp.Responses[i].Body))
		}
	}
	// wire overestimates the stream (bodies plus a generous per-response
	// head allowance) for the too-small-to-stall arm.
	wire := body + int64(len(exp.Responses))*512
	switch {
	case 4*perWindow <= paceQuantum && site.PaceTornFloor > 0 && body >= site.PaceTornFloor:
		exp.Fate = FateTorn
		return exp, nil
	case perWindow >= 4*paceQuantum:
		return exp, nil
	case wire*4 <= paceQuantum:
		return exp, nil
	}
	return exp, errUnsupported("pace between the starved and safe bands is scheduler-dependent")
}

// requestLineOK decides whether the rendered request line parses: a
// token method, a "/"-rooted target without embedded spaces, and a
// supported protocol version. Anything else tears the stream down.
func requestLineOK(r *Request) bool {
	if r.Method == "" || !isToken(r.Method) {
		return false
	}
	if r.Target == "" || r.Target[0] != '/' || strings.ContainsAny(r.Target, " ") {
		return false
	}
	return r.Proto == "HTTP/1.0" || r.Proto == "HTTP/1.1"
}

// headerLinesOK decides whether every rendered field line parses: a
// non-empty name with no embedded whitespace (RFC 9112 §5.1 rejects
// space before the colon — it is a smuggling vector).
func headerLinesOK(r *Request) bool {
	for _, h := range r.Headers {
		if h.Name() == "" || strings.ContainsAny(h.Name(), " \t") {
			return false
		}
	}
	return true
}

// contentLengthOf evaluates the request's Content-Length framing per
// RFC 9110 §8.6: every element of the (possibly line-folded or
// comma-listed) value must be the same valid 1*DIGIT number. ok
// reports whether a length was announced; torn reports a grammar
// violation, a conflict between duplicates, or a length past the
// server's body cap — all unrecoverable.
func contentLengthOf(r *Request) (n int64, ok, torn bool) {
	var elems []string
	for _, v := range r.headerValues("Content-Length") {
		for _, e := range strings.Split(v, ",") {
			elems = append(elems, strings.Trim(e, " \t"))
		}
	}
	if len(elems) == 0 {
		return 0, false, false
	}
	first := elems[0]
	n, valid := decimal(first)
	if !valid {
		return 0, false, true
	}
	for _, e := range elems[1:] {
		if e != first {
			return 0, false, true
		}
	}
	if n > httpproto.MaxBodyBytes {
		return 0, false, true
	}
	return n, true, false
}

// keepAliveOf is the model's independent RFC 9112 §9.6 persistence
// decision: the Connection value is a comma-separated option list
// gathered across every Connection field line; HTTP/1.1 persists unless
// the list contains "close", HTTP/1.0 closes unless it contains
// "keep-alive".
func keepAliveOf(r *Request) bool {
	var toks []string
	for _, v := range r.headerValues("Connection") {
		for _, t := range strings.Split(v, ",") {
			toks = append(toks, strings.ToLower(strings.Trim(t, " \t")))
		}
	}
	has := func(opt string) bool {
		for _, t := range toks {
			if t == opt {
				return true
			}
		}
		return false
	}
	if r.Proto == "HTTP/1.1" {
		return !has("close")
	}
	return has("keep-alive")
}

// serve predicts the response the static-file server produces for one
// well-framed request (Close is filled by the caller).
func serve(site *Site, r *Request) ExpectedResponse {
	if r.Method != "GET" && r.Method != "HEAD" {
		return errorResponse(405, r, false)
	}
	rawPath, _, _ := strings.Cut(r.Target, "?")
	p := httpproto.CleanPath(rawPath)
	if strings.HasSuffix(p, "/") {
		p += "index.html"
	}
	f, found := site.Lookup(p)
	if !found {
		if site.IsDir(p) {
			// Directory without its trailing slash: 301 to the slash
			// form, Location echoing the raw target minus the query.
			loc, _, _ := strings.Cut(r.Target, "?")
			er := errorResponse(301, r, false)
			er.Headers["Location"] = loc + "/"
			return er
		}
		return errorResponse(404, r, false)
	}
	size := int64(len(f.Body))
	lastMod := httpproto.FormatHTTPDate(f.ModTime)
	// If-Modified-Since wins over Range: a 304 carries no representation
	// for a range to select from (RFC 9110 §13.2.2 evaluation order).
	if ims := r.combinedHeader("If-Modified-Since"); ims != "" && httpproto.NotModifiedSince(ims, f.ModTime) {
		return ExpectedResponse{
			Status:  304,
			Proto:   r.Proto,
			Head:    r.Method == "HEAD",
			BodyLen: 0,
			Headers: map[string]string{"Last-Modified": lastMod},
		}
	}
	start, length := int64(0), size
	status := 200
	headers := map[string]string{
		"Content-Type":  httpproto.MimeType(p),
		"Accept-Ranges": "bytes",
		"Last-Modified": lastMod,
	}
	if raw := r.combinedHeader("Range"); raw != "" {
		switch s, l, verdict := evalRange(raw, size); verdict {
		case rangeOK:
			status = 206
			start, length = s, l
			headers["Content-Range"] = fmt.Sprintf("bytes %d-%d/%d", s, s+l-1, size)
		case rangeUnsat:
			er := errorResponse(416, r, false)
			er.Headers["Content-Range"] = fmt.Sprintf("bytes */%d", size)
			return er
		case rangeIgnore:
			// Foreign units, multi-range, malformed specs: serve the
			// full representation (RFC 9110 §14.2).
		}
	}
	er := ExpectedResponse{
		Status:  status,
		Proto:   r.Proto,
		Head:    r.Method == "HEAD",
		BodyLen: length,
		Headers: headers,
	}
	if !er.Head {
		er.Body = f.Body[start : start+length]
	}
	return er
}

// errorResponse predicts a canned error-page reply. A HEAD reply keeps
// the Content-Length its GET twin would carry but sends no body.
func errorResponse(status int, r *Request, close bool) ExpectedResponse {
	page := httpproto.ErrorPage(status)
	er := ExpectedResponse{
		Status:  status,
		Proto:   r.Proto,
		Head:    r.Method == "HEAD",
		BodyLen: int64(len(page)),
		Close:   close,
		Headers: map[string]string{"Content-Type": "text/html"},
	}
	if !er.Head {
		er.Body = page
	}
	return er
}

// Range evaluation verdicts.
type rangeVerdict int

const (
	rangeIgnore rangeVerdict = iota // serve 200, full representation
	rangeOK                         // serve 206 with the selected range
	rangeUnsat                      // 416, range selects no byte
)

// evalRange is the model's independent single-range evaluation per
// RFC 9110 §14: "bytes=first-last" (last clamped), "bytes=first-"
// (through the end), "bytes=-suffix" (final suffix bytes, zero-length
// suffix unsatisfiable). Foreign units, multi-range lists and malformed
// specs are ignored; a first position at or past the end is
// unsatisfiable.
func evalRange(value string, size int64) (start, length int64, v rangeVerdict) {
	unit, spec, cut := strings.Cut(value, "=")
	if !cut || !strings.EqualFold(strings.TrimSpace(unit), "bytes") {
		return 0, 0, rangeIgnore
	}
	if strings.Contains(spec, ",") {
		return 0, 0, rangeIgnore
	}
	first, last, cut := strings.Cut(strings.TrimSpace(spec), "-")
	if !cut {
		return 0, 0, rangeIgnore
	}
	first, last = strings.TrimSpace(first), strings.TrimSpace(last)
	if first == "" {
		n, valid := decimal(last)
		if !valid {
			return 0, 0, rangeIgnore
		}
		if n == 0 || size == 0 {
			return 0, 0, rangeUnsat
		}
		if n > size {
			n = size
		}
		return size - n, n, rangeOK
	}
	s, valid := decimal(first)
	if !valid {
		return 0, 0, rangeIgnore
	}
	end := size - 1
	if last != "" {
		e, valid := decimal(last)
		if !valid || e < s {
			return 0, 0, rangeIgnore
		}
		if e < end {
			end = e
		}
	}
	if s >= size {
		return 0, 0, rangeUnsat
	}
	return s, end - s + 1, rangeOK
}

// decimal parses a strict 1*DIGIT value: no sign, no whitespace, no
// base prefix. Values too long for int64 are invalid.
func decimal(s string) (int64, bool) {
	if s == "" || len(s) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// isToken reports whether s is an HTTP token (RFC 9110 §5.6.2).
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0:
		default:
			return false
		}
	}
	return true
}
