package model

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/httpproto"
)

// envInt reads an integer knob from the environment.
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// runOrFatal runs one program and fails the test with a shrunk trace on
// any mismatch.
func runOrFatal(t *testing.T, h *Harness, p *Program) {
	t.Helper()
	m, err := h.Run(p)
	if err != nil {
		t.Fatalf("program %s outside the model's domain: %v", p.Name, err)
	}
	if m != nil {
		m = Shrink(h, m, 200)
		t.Fatalf("conformance violation: %s\nminimal trace:\n%s", m, TraceJSON(m.Program))
	}
}

// TestModelConformanceSeeded is the main conformance run: every corner
// program plus MODEL_PROGRAMS seeded random programs (default 300; the
// `make model` target runs 10000) against the production parser, a
// slice of them over a write-fragmenting transport. Any divergence
// between the wire and the executable specification fails with a
// shrunk minimal trace.
func TestModelConformanceSeeded(t *testing.T) {
	h := NewHarness(t, HarnessOptions{})
	hFrag := NewHarness(t, HarnessOptions{Fragment: 7})
	for _, p := range CornerPrograms(h.Site) {
		runOrFatal(t, h, p)
		runOrFatal(t, hFrag, p)
	}
	n := envInt("MODEL_PROGRAMS", 300)
	g := NewGen(0x5eed2005, h.Site)
	for i := 0; i < n; i++ {
		p := g.Program(i)
		target := h
		if i%8 == 7 {
			target = hFrag
		}
		runOrFatal(t, target, p)
	}
	// The in-memory transport reads on connection goroutines, where hot
	// repeats take the fast path: the batch must have checked it. Every
	// reply needs a write of its own unless a fast-served window shared
	// one, so fewer reply writes than replies means pipelined hits were
	// served as windows too.
	snap := h.Server().Framework().Profile().Snapshot()
	if snap.DirectDispatched == 0 {
		t.Fatal("no program reached the fast path (DirectDispatched = 0)")
	}
	if snap.ReplyWrites >= snap.RequestsServed {
		t.Fatalf("no pipelined window shared a write: %d reply writes for %d requests",
			snap.ReplyWrites, snap.RequestsServed)
	}
	t.Logf("fast path served %d requests; %d reply writes for %d requests",
		snap.DirectDispatched, snap.ReplyWrites, snap.RequestsServed)
}

// TestModelConformanceTCP reruns the corner programs and a short random
// batch over real loopback TCP, so the in-memory transport's behavior
// is itself cross-checked against kernel sockets.
func TestModelConformanceTCP(t *testing.T) {
	h := NewHarness(t, HarnessOptions{Transport: "tcp"})
	for _, p := range CornerPrograms(h.Site) {
		runOrFatal(t, h, p)
	}
	g := NewGen(0x7c9, h.Site)
	for i := 0; i < 40; i++ {
		runOrFatal(t, h, g.Program(i))
	}
}

// legacyBugs maps each fixed wire bug's corner program to the mismatch
// kind the model must report when the historical parser serves it.
var legacyBugs = []struct {
	program string
	kind    string
	note    string
}{
	{"connection-token-11-close", "close-header",
		"RFC 9112 §9.6: \"close, te\" must close an HTTP/1.1 connection; the whole-string comparison kept it alive"},
	{"connection-token-10-keepalive", "keep-header",
		"RFC 9112 §9.6: \"keep-alive, upgrade\" must keep an HTTP/1.0 connection; the whole-string comparison closed it"},
	{"content-length-plus-sign", "extra-response",
		"RFC 9110 §8.6: \"+5\" violates the Content-Length grammar and must tear the stream down; Atoi accepted it and the request was answered"},
	{"content-length-dup-conflict", "extra-response",
		"RFC 9110 §8.6: conflicting duplicate Content-Length must tear the stream down; last-write-wins framed with the wrong length and the smuggled request was answered"},
	{"transfer-encoding-smuggle", "status",
		"Transfer-Encoding must be refused with 501 + close; ignoring it replays the chunked body into the pipeline"},
}

// TestModelCatchesLegacyParserBugs runs the bug corner programs against
// LegacyCodec — the pre-fix parser behavior — and demands that the
// model detects every one with the expected mismatch kind, shrinks it
// without losing the kind, and (with MODEL_UPDATE_TRACES=1) persists
// the minimal traces under testdata/model/.
func TestModelCatchesLegacyParserBugs(t *testing.T) {
	h := NewHarness(t, HarnessOptions{Codec: LegacyCodec{}})
	byName := make(map[string]*Program)
	for _, p := range CornerPrograms(h.Site) {
		byName[p.Name] = p
	}
	update := os.Getenv("MODEL_UPDATE_TRACES") == "1"
	for _, bug := range legacyBugs {
		p, ok := byName[bug.program]
		if !ok {
			t.Fatalf("no corner program named %q", bug.program)
		}
		m, err := h.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", bug.program, err)
		}
		if m == nil {
			t.Fatalf("%s: the model failed to catch the legacy bug", bug.program)
		}
		if m.Kind != bug.kind {
			t.Fatalf("%s: mismatch kind %q, want %q (%s)", bug.program, m.Kind, bug.kind, m)
		}
		shrunk := Shrink(h, m, 150)
		if shrunk.Kind != bug.kind {
			t.Fatalf("%s: shrinking changed the kind to %q", bug.program, shrunk.Kind)
		}
		if update {
			tr := &Trace{
				Name:       bug.program,
				Note:       bug.note,
				LegacyKind: bug.kind,
				Program:    shrunk.Program,
			}
			if err := SaveTrace(filepath.Join("testdata", "model", bug.program+".json"), tr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplaySavedTraces replays every persisted counterexample trace:
// against the production parser each must pass, and against the
// historical parser each must still reproduce its recorded mismatch
// kind — so the traces stay honest as the code evolves.
func TestReplaySavedTraces(t *testing.T) {
	traces, err := LoadTraces(filepath.Join("testdata", "model"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no saved traces under testdata/model (regenerate with MODEL_UPDATE_TRACES=1)")
	}
	fixed := NewHarness(t, HarnessOptions{})
	legacy := NewHarness(t, HarnessOptions{Codec: LegacyCodec{}})
	for _, tr := range traces {
		m, err := fixed.Run(tr.Program)
		if err != nil {
			t.Fatalf("trace %s: %v", tr.Name, err)
		}
		if m != nil {
			t.Fatalf("trace %s regressed against the fixed parser: %s", tr.Name, m)
		}
		if tr.LegacyKind == "" {
			continue
		}
		lm, err := legacy.Run(tr.Program)
		if err != nil {
			t.Fatalf("trace %s (legacy): %v", tr.Name, err)
		}
		if lm == nil || lm.Kind != tr.LegacyKind {
			t.Fatalf("trace %s no longer reproduces %q against the legacy parser (got %v)", tr.Name, tr.LegacyKind, lm)
		}
	}
}

// slowReaderProgram builds a directed program: nreq pipelined GETs of
// the large streamed file, read back at paceBytes per paceEveryMs.
func slowReaderProgram(name string, nreq, paceBytes, paceEveryMs int) *Program {
	cs := ConnScript{PaceBytes: paceBytes, PaceEveryMs: paceEveryMs}
	for i := 0; i < nreq; i++ {
		cs.Requests = append(cs.Requests,
			Request{Method: "GET", Target: "/big.bin", Proto: "HTTP/1.1"})
	}
	return &Program{Name: name, Conns: []ConnScript{cs}}
}

// TestModelSlowReaderFates runs the paced slow-reader site of the model:
// with the write deadline armed, a reader starved below the server's
// pace quantum must see its connection torn down, while a
// comfortably fast one must receive every byte and keep the connection.
// Both transports are exercised — the in-memory pipes hide their
// descriptor and pin the blocking sink's per-chunk deadline, and TCP
// pins the parked-write path end to end (a non-blocking first attempt,
// park on EAGAIN, the write pump's blocking writes under the same
// per-chunk deadline). With MODEL_UPDATE_TRACES=1 the minimal
// torn program is persisted under testdata/model/ alongside the parser
// counterexamples.
func TestModelSlowReaderFates(t *testing.T) {
	const wt = 150 * time.Millisecond
	mem := NewHarness(t, HarnessOptions{WriteTimeout: wt})
	tcp := NewHarness(t, HarnessOptions{Transport: "tcp", WriteTimeout: wt})

	// 2 KiB per 25 ms is 12 KiB per deadline window — starved (a
	// quarter of the 64 KiB pace quantum); 64 KiB per 10/5 ms is
	// comfortably past the four-quanta-per-window safety band.
	torn := slowReaderProgram("slow-reader-torn", 1, 2048, 25)
	for _, tc := range []struct {
		name string
		h    *Harness
		p    *Program
		fate Fate
	}{
		{"mem-starved-torn", mem, torn, FateTorn},
		{"mem-fast-complete", mem, slowReaderProgram("slow-reader-fast", 1, 64<<10, 10), FateOpen},
		{"tcp-starved-torn", tcp, slowReaderProgram("slow-reader-torn-tcp", 100, 2048, 25), FateTorn},
		{"tcp-fast-complete", tcp, slowReaderProgram("slow-reader-fast-tcp", 1, 64<<10, 5), FateOpen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exp, err := Predict(tc.h.Site, &tc.p.Conns[0])
			if err != nil {
				t.Fatalf("%s outside the model's domain: %v", tc.p.Name, err)
			}
			if exp.Fate != tc.fate {
				t.Fatalf("%s predicts fate %v, want %v", tc.p.Name, exp.Fate, tc.fate)
			}
			runOrFatal(t, tc.h, tc.p)
		})
	}

	if os.Getenv("MODEL_UPDATE_TRACES") == "1" {
		tr := &Trace{
			Name:    "slow-reader-torn",
			Note:    "slow-reader defense: a paced reader starved below one write-progress quantum per write-deadline window must be torn down; under the default harness (no write deadline) the same program completes and probes open",
			Program: torn,
		}
		if err := SaveTrace(filepath.Join("testdata", "model", "slow-reader-torn.json"), tr); err != nil {
			t.Fatal(err)
		}
	}
}

// hotRepeatProgram is the shape the rendered-response cache serves best:
// n keep-alive GETs of one small document on a single connection.
func hotRepeatProgram(name string, n int) *Program {
	var cs ConnScript
	for i := 0; i < n; i++ {
		cs.Requests = append(cs.Requests,
			Request{Method: "GET", Target: "/about.txt", Proto: "HTTP/1.1"})
	}
	return &Program{Name: name, Conns: []ConnScript{cs}}
}

// TestModelCacheInvalidation is the staleness bound, checked against the
// model: a file mutated between two GETs on one keep-alive connection
// must yield the new body and the new Last-Modified on the second GET —
// the rendered-response entry and the file-cache bytes must both fall to
// the stat revalidation, never a stale byte on the wire. The scenario
// runs on both transports; on each the first repeat is served from the
// rendered cache by the fast path and the post-mutation repeat must not
// be. With MODEL_UPDATE_TRACES=1 the hot-repeat program joins the replay
// corpus.
func TestModelCacheInvalidation(t *testing.T) {
	single := &ConnScript{Requests: []Request{
		{Method: "GET", Target: "/about.txt", Proto: "HTTP/1.1"}}}
	for _, tc := range []struct {
		name string
		o    HarnessOptions
	}{
		{"mem-queued", HarnessOptions{}},
		{"tcp", HarnessOptions{Transport: "tcp"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHarness(t, tc.o)
			conn, err := h.Dial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			sendGet := func() *wireResponse {
				t.Helper()
				_ = conn.SetDeadline(time.Now().Add(respTimeout))
				if _, err := conn.Write([]byte("GET /about.txt HTTP/1.1\r\n\r\n")); err != nil {
					t.Fatal(err)
				}
				wr, err := readWireResponse(br, false)
				if err != nil {
					t.Fatal(err)
				}
				return wr
			}
			check := func(wr *wireResponse) {
				t.Helper()
				exp, err := Predict(h.Site, single)
				if err != nil {
					t.Fatal(err)
				}
				if kind, detail := compareResponse(&exp.Responses[0], wr); kind != "" {
					t.Fatalf("response violates the model (%s): %s", kind, detail)
				}
			}
			// Warm every caching layer: the second GET of a hot repeat is
			// the one a rendered-response cache would serve.
			before := sendGet()
			check(before)
			check(sendGet())

			mt := time.Date(2005, 4, 5, 9, 0, 0, 0, time.UTC)
			if err := h.Mutate("/about.txt", []byte("mutated body: every cache must drop this path\n"), mt); err != nil {
				t.Fatal(err)
			}
			// Let the rendered entry outlive its revalidate window, so the
			// next request is forced through the stat hop that sees the
			// new (mtime, size).
			time.Sleep(250 * time.Millisecond)
			after := sendGet()
			check(after)
			if before.Headers["last-modified"] == after.Headers["last-modified"] {
				t.Fatalf("Last-Modified unchanged across mutation: %q", after.Headers["last-modified"])
			}
		})
	}

	if os.Getenv("MODEL_UPDATE_TRACES") == "1" {
		tr := &Trace{
			Name:    "hot-repeat-keepalive",
			Note:    "rendered-response cache shape: repeated keep-alive GETs of one small document on a single connection; the wire must be byte-equivalent whether served queued, from the file cache, or run-to-completion from the rendered cache (TestModelCacheInvalidation additionally mutates the file mid-connection and demands fresh bytes and Last-Modified)",
			Program: hotRepeatProgram("hot-repeat-keepalive", 6),
		}
		if err := SaveTrace(filepath.Join("testdata", "model", "hot-repeat-keepalive.json"), tr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShedContract pins the 503-shed wire contract with the model's
// checker: with MaxConnections=1 and shedding on, a second connection
// gets an immediate 503 carrying Retry-After >= 1 second and
// Connection: close, the canned error page with an exact
// Content-Length, then EOF — and the held connection keeps working.
func TestShedContract(t *testing.T) {
	h := NewHarness(t, HarnessOptions{MaxConnections: 1, ShedOnOverload: true})

	// Occupy the single slot and complete one round trip, so the
	// connection is registered before the second dial.
	held, err := h.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	_ = held.SetDeadline(time.Now().Add(respTimeout))
	if _, err := held.Write([]byte("GET /about.txt HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	heldR := bufio.NewReader(held)
	if wr, err := readWireResponse(heldR, false); err != nil || wr.Status != 200 {
		t.Fatalf("held connection: %v status %v", err, wr)
	}

	shed, err := h.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer shed.Close()
	_ = shed.SetDeadline(time.Now().Add(respTimeout))
	br := bufio.NewReader(shed)
	wr, err := readWireResponse(br, false)
	if err != nil {
		t.Fatalf("reading shed reply: %v", err)
	}
	page := httpproto.ErrorPage(503)
	exp := &ExpectedResponse{
		Status:  503,
		Proto:   "HTTP/1.1",
		Body:    page,
		BodyLen: int64(len(page)),
		Close:   true,
		Headers: map[string]string{"Content-Type": "text/html"},
	}
	if kind, detail := compareResponse(exp, wr); kind != "" {
		t.Fatalf("shed reply violates the contract (%s): %s", kind, detail)
	}
	ra, err := strconv.Atoi(wr.Headers["retry-after"])
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", wr.Headers["retry-after"])
	}
	if _, err := br.ReadByte(); !isHangup(err) {
		t.Fatalf("shed connection must close after the 503, got %v", err)
	}
	if h.Server().Shed() == 0 {
		t.Fatal("shed counter did not move")
	}

	// The held connection must be unaffected by the shed.
	if _, err := held.Write([]byte(probeWire)); err != nil {
		t.Fatal(err)
	}
	if wr, err := readWireResponse(heldR, false); err != nil || wr.Status != 200 {
		t.Fatalf("held connection after shed: %v status %v", err, wr)
	}
}

// TestSpecRangeAgreesWithParser cross-checks the model's independent
// range evaluation against the production parser over a grid of header
// values and sizes: if they ever diverge, either the spec or the parser
// has drifted from the documented contract.
func TestSpecRangeAgreesWithParser(t *testing.T) {
	values := []string{
		"bytes=0-4", "bytes=2-", "-4", "-0", "bytes=-0", "bytes=0-0",
		"bytes=1000000-", "bytes=0-2,4-6", "bytes=abc", "octets=0-4",
		"bytes=4-2", "bytes= 1 - 3", "bytes=-", "bytes=+1-2", "bytes=5-4",
		"bytes=0-999999999", "BYTES=1-2", "bytes =1-2", "bytes=9-",
		"bytes=-99999999999999999999", "bytes=1-1", "",
	}
	sizes := []int64{0, 1, 10, 33, 128 << 10}
	for _, v := range values {
		for _, size := range sizes {
			s, l, verdict := evalRange(v, size)
			br, err := httpproto.ParseRange(v, size)
			switch verdict {
			case rangeOK:
				if err != nil {
					t.Fatalf("evalRange(%q, %d) ok, parser err %v", v, size, err)
				}
				if br.Start != s || br.Length != l {
					t.Fatalf("evalRange(%q, %d) = %d+%d, parser %d+%d", v, size, s, l, br.Start, br.Length)
				}
			case rangeUnsat:
				if !errors.Is(err, httpproto.ErrRangeUnsatisfiable) {
					t.Fatalf("evalRange(%q, %d) unsat, parser %v", v, size, err)
				}
			case rangeIgnore:
				if !errors.Is(err, httpproto.ErrNoRange) {
					t.Fatalf("evalRange(%q, %d) ignore, parser %v", v, size, err)
				}
			}
		}
	}
}

// TestConnScriptChunks pins the framing schedule semantics the whole
// harness rests on.
func TestConnScriptChunks(t *testing.T) {
	cs := ConnScript{
		Requests: []Request{{Method: "GET", Target: "/x", Proto: "HTTP/1.1"}},
		Splits:   []int{4, 1, 4, 9999, 0, -3},
	}
	stream := cs.Wire()
	chunks := cs.Chunks()
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	var joined []byte
	for _, c := range chunks {
		if len(c) == 0 {
			t.Fatal("empty chunk")
		}
		joined = append(joined, c...)
	}
	if string(joined) != string(stream) {
		t.Fatalf("chunks do not reassemble the stream")
	}
	if string(chunks[0]) != "G" || string(chunks[1]) != "ET " {
		t.Fatalf("cut offsets wrong: %q %q", chunks[0], chunks[1])
	}
	// Every-byte splitting round-trips too.
	cs.Splits = nil
	for i := 1; i < len(stream); i++ {
		cs.Splits = append(cs.Splits, i)
	}
	if got := cs.Chunks(); len(got) != len(stream) {
		t.Fatalf("every-byte chunks = %d, want %d", len(got), len(stream))
	}
}

// TestGeneratorDeterminism: the same seed must produce byte-identical
// programs — the conformance run's reproducibility rests on it.
func TestGeneratorDeterminism(t *testing.T) {
	site := DefaultSite()
	a, b := NewGen(42, site), NewGen(42, site)
	for i := 0; i < 50; i++ {
		pa, pb := a.Program(i), b.Program(i)
		if TraceJSON(pa) != TraceJSON(pb) {
			t.Fatalf("program %d diverged between identically seeded generators", i)
		}
	}
	if fmt.Sprint(NewGen(43, site).Program(0)) == fmt.Sprint(a.Program(50)) {
		t.Fatal("distinct seeds should not collide (sanity)")
	}
}
