package httpproto

import (
	"errors"
	"strings"
	"testing"
)

// TestKeepAliveConnectionTokenList pins the RFC 9112 §9.6 reading of the
// Connection header: a comma-separated option list, matched per token and
// case-insensitively — not a whole-string comparison.
func TestKeepAliveConnectionTokenList(t *testing.T) {
	cases := []struct {
		proto, conn string
		keep        bool
	}{
		// HTTP/1.1 defaults to persistent; any "close" token ends that.
		{"HTTP/1.1", "", true},
		{"HTTP/1.1", "keep-alive", true},
		{"HTTP/1.1", "close", false},
		{"HTTP/1.1", "Close", false},
		{"HTTP/1.1", "close, te", false},
		{"HTTP/1.1", "te, CLOSE", false},
		{"HTTP/1.1", " close ,te", false},
		{"HTTP/1.1", "te", true},
		// "close" must match as a token, not a substring.
		{"HTTP/1.1", "closed", true},
		{"HTTP/1.1", "not-close", true},
		// HTTP/1.0 defaults to close; any "keep-alive" token persists.
		{"HTTP/1.0", "", false},
		{"HTTP/1.0", "close", false},
		{"HTTP/1.0", "keep-alive", true},
		{"HTTP/1.0", "Keep-Alive", true},
		{"HTTP/1.0", "keep-alive, upgrade", true},
		{"HTTP/1.0", "upgrade,\tkeep-alive", true},
		{"HTTP/1.0", "keep-alives", false},
	}
	for _, tc := range cases {
		r := &Request{Proto: tc.proto, Headers: NewHeader()}
		if tc.conn != "" {
			r.Headers.Set("Connection", tc.conn)
		}
		if got := r.KeepAlive(); got != tc.keep {
			t.Errorf("%s Connection:%q KeepAlive() = %v, want %v",
				tc.proto, tc.conn, got, tc.keep)
		}
	}
}

// TestKeepAliveRefusedRequestNeverPersists: a refused request's body was
// never framed, so the connection cannot be reused regardless of headers.
func TestKeepAliveRefusedRequestNeverPersists(t *testing.T) {
	r := &Request{Proto: "HTTP/1.1", Headers: NewHeader(), Refuse: 501}
	r.Headers.Set("Connection", "keep-alive")
	if r.KeepAlive() {
		t.Fatal("refused request reported keep-alive")
	}
}

// TestContentLengthGrammar pins the strict 1*DIGIT Content-Length parse:
// the signed/whitespace/base forms strconv.Atoi tolerates are exactly the
// disagreement-between-parsers gap request smuggling needs.
func TestContentLengthGrammar(t *testing.T) {
	body := "hello"
	cases := []struct {
		cl      string
		wantErr error // nil means the request must parse
		wantLen int
	}{
		{"5", nil, 5},
		{"05", nil, 5}, // leading zeros are valid 1*DIGIT
		{"0", nil, 0},
		{"+5", ErrBadHeader, 0},
		{"-5", ErrBadHeader, 0},
		{"0x5", ErrBadHeader, 0},
		{"5 5", ErrBadHeader, 0},
		{"5.0", ErrBadHeader, 0},
		{"5,6", ErrBadHeader, 0},   // conflicting list values
		{"5, 5", nil, 5},           // identical list values are tolerated
		{"05, 5", ErrBadHeader, 0}, // "05" and "5" differ as elements
		{"9999999999999999999999999", ErrBodyTooLarge, 0},
	}
	for _, tc := range cases {
		raw := "POST /p HTTP/1.1\r\nContent-Length: " + tc.cl + "\r\n\r\n" + body
		req, n, err := ParseRequest([]byte(raw))
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("CL %q: err = %v, want %v", tc.cl, err, tc.wantErr)
			}
			continue
		}
		if err != nil || req == nil {
			t.Errorf("CL %q: unexpected failure req=%v n=%d err=%v", tc.cl, req, n, err)
			continue
		}
		if len(req.Body) != tc.wantLen {
			t.Errorf("CL %q: body %d bytes, want %d", tc.cl, len(req.Body), tc.wantLen)
		}
	}
}

// TestDuplicateContentLengthHeaders pins the RFC 9110 §8.6 defense for
// repeated Content-Length field lines: identical duplicates are accepted
// as one value, conflicting duplicates are unrecoverable.
func TestDuplicateContentLengthHeaders(t *testing.T) {
	ok := "POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
	req, n, err := ParseRequest([]byte(ok))
	if err != nil || req == nil || string(req.Body) != "hello" {
		t.Fatalf("identical duplicate CL rejected: req=%v n=%d err=%v", req, n, err)
	}

	// The classic smuggle shape: a benign first length and a zero second
	// one, hoping the parser last-wins and leaves the body in the stream.
	bad := "POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello"
	req, _, err = ParseRequest([]byte(bad))
	if !errors.Is(err, ErrBadHeader) {
		t.Fatalf("conflicting duplicate CL: req=%v err=%v, want ErrBadHeader", req, err)
	}
}

// TestTransferEncodingRefused pins the unsupported-feature contract: a
// request announcing Transfer-Encoding parses into a 501 refusal that
// consumes every remaining buffered byte, so no part of the unframeable
// body can be replayed as the next pipelined request.
func TestTransferEncodingRefused(t *testing.T) {
	smuggled := "GET /secret HTTP/1.1\r\n\r\n"
	raw := "POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"18\r\n" + smuggled + "\r\n0\r\n\r\n"
	req, n, err := ParseRequest([]byte(raw))
	if err != nil || req == nil {
		t.Fatalf("TE request: req=%v err=%v", req, err)
	}
	if req.Refuse != 501 {
		t.Fatalf("Refuse = %d, want 501", req.Refuse)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d: chunked body left in stream", n, len(raw))
	}
	if req.KeepAlive() {
		t.Fatal("refused TE request reported keep-alive")
	}

	// TE alongside CL is the TE.CL desync: still a refusal, still closes.
	both := "POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\nBODY"
	req, n, err = ParseRequest([]byte(both))
	if err != nil || req == nil || req.Refuse != 501 || n != len(both) {
		t.Fatalf("TE+CL: req=%+v n=%d err=%v, want 501 refusal consuming all", req, n, err)
	}
}

// TestHeaderAddCombinesDuplicates pins the §5.2 list combination the
// parser relies on for duplicate-header visibility.
func TestHeaderAddCombinesDuplicates(t *testing.T) {
	h := NewHeader()
	h.Add("Connection", "keep-alive")
	h.Add("connection", "upgrade")
	if got := h.Get("Connection"); got != "keep-alive, upgrade" {
		t.Fatalf("combined value %q", got)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}

	raw := "GET / HTTP/1.1\r\nConnection: close\r\nConnection: te\r\n\r\n"
	req, _, err := ParseRequest([]byte(raw))
	if err != nil || req == nil {
		t.Fatalf("parse: %v", err)
	}
	if req.KeepAlive() {
		t.Fatal("split Connection: close across two lines kept the connection alive")
	}
}

// TestKeepAliveNoAllocs keeps the token-list scan off the allocator: it
// runs on the serve hot path for every request.
func TestKeepAliveNoAllocs(t *testing.T) {
	r := &Request{Proto: "HTTP/1.1", Headers: NewHeader()}
	r.Headers.Set("Connection", " Keep-Alive , te,close ")
	if avg := testing.AllocsPerRun(200, func() {
		if r.KeepAlive() {
			t.Fatal("close token missed")
		}
	}); avg > 0 {
		t.Fatalf("KeepAlive allocates %.1f per call", avg)
	}
	raw := []byte("POST /p HTTP/1.1\r\nContent-Length: 1024\r\n\r\n" + strings.Repeat("x", 1024))
	if _, _, err := ParseRequest(raw); err != nil {
		t.Fatalf("parse: %v", err)
	}
}
