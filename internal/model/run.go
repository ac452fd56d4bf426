package model

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/copshttp"
	"repro/internal/faultnet"
	"repro/internal/nserver"
	"repro/internal/options"
	"repro/internal/simnet"
)

const (
	// respTimeout bounds each response read and the probe round trip; a
	// passing run never waits on it.
	respTimeout = 10 * time.Second
	// closeWait bounds how long the harness waits for the EOF a closed
	// or torn fate promises. It is the only timeout a FAILING run sits
	// out (a connection wrongly left open), so it is kept short.
	closeWait = 2 * time.Second
)

// probeWire confirms an open fate: a connection the model says persists
// must still answer this, then close on request.
const probeWire = "GET /about.txt HTTP/1.1\r\nConnection: close\r\n\r\n"

// HarnessOptions configure a conformance harness.
type HarnessOptions struct {
	// Codec overrides the server's wire codec (LegacyCodec replays the
	// historical parser); nil runs the production parser.
	Codec nserver.Codec
	// Transport picks "mem" (default; in-memory pipes that preserve the
	// split schedule byte-for-byte) or "tcp" (real loopback sockets).
	// The MODEL_TRANSPORT environment variable overrides "".
	Transport string
	// Fragment, when > 0, wraps the listener in a faultnet scenario that
	// caps every server write at this many bytes, exercising the
	// client-side reader against fragmented responses.
	Fragment int
	// MaxConnections / ShedOnOverload configure the 503-shed contract
	// test; zero values leave shedding off.
	MaxConnections int
	ShedOnOverload bool
	// WriteTimeout arms the server's per-write-progress deadline (the
	// O7 hardening knob), which is what lets paced slow-reader scripts
	// predict torn fates; zero leaves writes unbounded.
	WriteTimeout time.Duration
}

// Harness runs client programs against a live COPS-HTTP server and
// diffs the wire against the model. The server is configured fully
// serialized — one shard, one event thread, one file-I/O worker, one
// dispatcher — so cross-request races inside one connection reproduce
// deterministically instead of depending on scheduler luck.
type Harness struct {
	Site *Site
	srv  *copshttp.Server
	mem  *simnet.MemListener
	tcp  bool
	// dir is the materialized DocRoot (Mutate rewrites files under it).
	dir string
	// ownDir is removed by Close when the harness made its own DocRoot.
	ownDir string
}

// NewHarness materializes the default site into a temp DocRoot and
// starts a server on the chosen transport. Cleanup is registered on t.
func NewHarness(t testing.TB, o HarnessOptions) *Harness {
	t.Helper()
	h, err := newHarness(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.srv.Shutdown)
	return h
}

// NewStandaloneHarness is NewHarness without a testing.TB, for replaying
// traces from plain programs (see TUTORIAL.md §6). Call Close when done.
func NewStandaloneHarness(o HarnessOptions) (*Harness, error) {
	dir, err := os.MkdirTemp("", "model-site-")
	if err != nil {
		return nil, err
	}
	h, err := newHarness(dir, o)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h.ownDir = dir
	return h, nil
}

// Close shuts the server down and removes a standalone harness's
// DocRoot. Test harnesses are cleaned up by testing instead.
func (h *Harness) Close() {
	h.srv.Shutdown()
	if h.ownDir != "" {
		os.RemoveAll(h.ownDir)
	}
}

func newHarness(dir string, o HarnessOptions) (*Harness, error) {
	site := DefaultSite()
	if err := site.Materialize(dir); err != nil {
		return nil, err
	}
	opts := options.COPSHTTP()
	opts.Shards = 1
	opts.DispatcherThreads = 1
	opts.EventThreads = 1
	opts.FileIOThreads = 1
	// Half the big file's size: /big.bin exercises the descriptor-
	// streaming path and its interaction with reply ordering.
	opts.LargeFileThreshold = 64 << 10
	// Profiled, so tests can see which requests took the fast path.
	opts.Profiling = true
	opts.MaxConnections = o.MaxConnections
	if o.WriteTimeout > 0 {
		opts = opts.WithHardening(0, o.WriteTimeout, 0)
		site.WriteTimeout = o.WriteTimeout
	}
	srv, err := copshttp.New(copshttp.Config{
		DocRoot:        dir,
		Options:        &opts,
		Codec:          o.Codec,
		ShedOnOverload: o.ShedOnOverload,
	})
	if err != nil {
		return nil, err
	}
	h := &Harness{Site: site, srv: srv, dir: dir}
	transport := o.Transport
	if transport == "" {
		transport = os.Getenv("MODEL_TRANSPORT")
	}
	if transport == "tcp" {
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			return nil, err
		}
		h.tcp = true
		// Kernel sockets absorb megabytes before a writer stalls (send
		// buffer plus the paced client's clamped receive window).
		site.PaceTornFloor = 12 << 20
	} else {
		// net.Pipe buffers nothing, so stalling needs only a stream
		// bigger than one armed write — /big.bin sized, conservatively.
		site.PaceTornFloor = 128 << 10
		ln := simnet.NewMemListener("model")
		var lis net.Listener = ln
		if o.Fragment > 0 {
			lis = faultnet.Wrap(lis, faultnet.Scenario{MaxWritePerCall: o.Fragment})
		}
		if err := srv.Framework().Start(lis); err != nil {
			return nil, err
		}
		h.mem = ln
	}
	return h, nil
}

// Server exposes the underlying COPS-HTTP instance (shed counters).
func (h *Harness) Server() *copshttp.Server { return h.srv }

// Mutate rewrites one site file in place — on disk and in the model's
// virtual tree, so subsequent Predict calls expect the new body and
// Last-Modified. It is the staleness probe of the caching layers: any
// rendered-response or file-cache entry for the path must be dropped by
// the server's stat revalidation before the next response goes out.
func (h *Harness) Mutate(path string, body []byte, modTime time.Time) error {
	full := filepath.Join(h.dir, filepath.FromSlash(strings.TrimPrefix(path, "/")))
	if err := os.WriteFile(full, body, 0o644); err != nil {
		return err
	}
	if err := os.Chtimes(full, modTime, modTime); err != nil {
		return err
	}
	h.Site.Files[path] = &File{Body: body, ModTime: modTime}
	return nil
}

// Dial opens one client connection to the harness server.
func (h *Harness) Dial() (net.Conn, error) {
	if h.tcp {
		return net.Dial("tcp", h.srv.Addr())
	}
	return h.mem.Dial()
}

// Mismatch is one divergence between the model and the wire.
type Mismatch struct {
	// Program is the client program that produced the divergence.
	Program *Program
	// Conn / Resp locate it: connection index, response index.
	Conn, Resp int
	// Kind classifies it; shrinking preserves the kind. Kinds:
	// "status", "proto", "body", "content-length", "header" (a
	// contract-fixed header differs), "close-header" (missing
	// Connection: close), "keep-header" (spurious Connection: close),
	// "close" (connection died before a predicted response), "open"
	// (connection survived a predicted close), "extra-response" (bytes
	// after the final predicted response — the smuggling signature),
	// "dial" (connect failed), "lifecycle" (the server stepped a
	// connection through a transition its lifecycle table forbids).
	Kind   string
	Detail string
}

// String renders the mismatch for test output.
func (m *Mismatch) String() string {
	name := ""
	if m.Program != nil && m.Program.Name != "" {
		name = " in " + m.Program.Name
	}
	return fmt.Sprintf("%s%s: conn %d response %d: %s", m.Kind, name, m.Conn, m.Resp, m.Detail)
}

// TraceJSON renders the program as an indented JSON trace (the format
// testdata/model/ persists).
func TraceJSON(p *Program) string {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// Run predicts and executes every connection of the program in order.
// It returns the first mismatch (nil if the wire matches the model), or
// an error when the program is outside the model's domain. A connection
// that took a lifecycle transition the runtime's table forbids is a
// mismatch too, however its wire looked.
func (h *Harness) Run(p *Program) (*Mismatch, error) {
	bad := h.srv.Framework().LifecycleBadSteps()
	for ci := range p.Conns {
		exp, err := Predict(h.Site, &p.Conns[ci])
		if err != nil {
			return nil, err
		}
		m := h.runConn(&p.Conns[ci], exp)
		if n := h.srv.Framework().LifecycleBadSteps(); m == nil && n != bad {
			m = &Mismatch{Kind: "lifecycle", Detail: fmt.Sprintf("%d forbidden lifecycle steps", n-bad)}
		}
		if m != nil {
			m.Program, m.Conn = p, ci
			return m, nil
		}
	}
	return nil, nil
}

// runConn executes one connection script and checks it against exp.
// Writes run on their own goroutine: the transports are synchronous, so
// a server reply can block until the client reads it while the client's
// next segment blocks until the server reads that — concurrent reader
// and writer are required for progress, exactly as in a real client.
func (h *Harness) runConn(cs *ConnScript, exp Expectation) *Mismatch {
	conn, err := h.Dial()
	if err != nil {
		return &Mismatch{Kind: "dial", Detail: err.Error()}
	}
	defer conn.Close()
	chunks := cs.Chunks()
	writeDone := make(chan error, 1)
	go func() {
		for _, ch := range chunks {
			if _, werr := conn.Write(ch); werr != nil {
				writeDone <- werr
				return
			}
		}
		writeDone <- nil
	}()
	rd := conn
	if cs.Paced() {
		if tc, ok := conn.(*net.TCPConn); ok {
			// Clamp the receive window so the kernel cannot absorb a
			// multi-megabyte stream on the slow reader's behalf.
			_ = tc.SetReadBuffer(64 << 10)
		}
		rd = &pacedConn{Conn: conn, bytes: cs.PaceBytes,
			every: time.Duration(cs.PaceEveryMs) * time.Millisecond}
	}
	br := bufio.NewReader(rd)
	if cs.PaceBytes > 4096 {
		// bufio's default buffer would cap each paced tick below the
		// scripted allowance and silently lower the read rate.
		br = bufio.NewReaderSize(rd, cs.PaceBytes)
	}
	for i := range exp.Responses {
		er := &exp.Responses[i]
		_ = conn.SetReadDeadline(time.Now().Add(respTimeout))
		wr, rerr := readWireResponse(br, er.Head)
		if rerr != nil {
			if exp.Fate == FateTorn && isHangup(rerr) {
				// A torn connection may lose responses already predicted:
				// teardown races in-flight completions. A prediction
				// prefix followed by EOF is conforming.
				return nil
			}
			return &Mismatch{Resp: i, Kind: "close", Detail: fmt.Sprintf("reading predicted response %d: %v", i, rerr)}
		}
		if kind, detail := compareResponse(er, wr); kind != "" {
			return &Mismatch{Resp: i, Kind: kind, Detail: detail}
		}
	}
	switch exp.Fate {
	case FateClosed, FateTorn:
		_ = conn.SetReadDeadline(time.Now().Add(closeWait))
		if b, rerr := br.ReadByte(); rerr == nil {
			return &Mismatch{
				Resp:   len(exp.Responses),
				Kind:   "extra-response",
				Detail: fmt.Sprintf("byte %q on the wire after the final predicted response — the server answered bytes it must not frame", b),
			}
		} else if !isHangup(rerr) {
			return &Mismatch{
				Resp:   len(exp.Responses),
				Kind:   "open",
				Detail: fmt.Sprintf("connection should close after the final response: %v", rerr),
			}
		}
	case FateOpen:
		if werr := <-writeDone; werr != nil {
			return &Mismatch{Kind: "close", Detail: "client write failed on a connection the model predicts open: " + werr.Error()}
		}
		_ = conn.SetDeadline(time.Now().Add(respTimeout))
		if _, werr := conn.Write([]byte(probeWire)); werr != nil {
			return &Mismatch{Kind: "close", Detail: "probe write on a connection the model predicts open: " + werr.Error()}
		}
		wr, rerr := readWireResponse(br, false)
		if rerr != nil {
			return &Mismatch{Kind: "close", Detail: "probe read on a connection the model predicts open: " + rerr.Error()}
		}
		if wr.Status != 200 {
			return &Mismatch{Kind: "status", Detail: fmt.Sprintf("probe answered %d, want 200", wr.Status)}
		}
	}
	return nil
}

// pacedConn throttles reads to model a slow client: each Read ticks the
// pace clock once, then returns at most the per-tick byte allowance, so
// the drain rate never exceeds bytes per every. Writes — the request
// stream — pass through unthrottled, and deadlines still apply to the
// underlying connection.
type pacedConn struct {
	net.Conn
	bytes int
	every time.Duration
	start time.Time
}

// paceHorizon bounds the strictly paced phase. The slow-reader defense
// must fire within one WriteTimeout stall — well under a second in every
// harness configuration — so by the horizon the connection's fate is
// sealed and the client may drain freely: a torn fate tolerates any
// prediction prefix before the EOF, which faster reading cannot forge,
// and a kept connection only finishes sooner. Without the horizon, a torn TCP connection would
// drain megabytes of kernel-buffered bytes at the starved pace.
const paceHorizon = 4 * time.Second

func (p *pacedConn) Read(b []byte) (int, error) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	if time.Since(p.start) < paceHorizon {
		time.Sleep(p.every)
		if len(b) > p.bytes {
			b = b[:p.bytes]
		}
	}
	return p.Conn.Read(b)
}

// compareResponse diffs one observed response against its prediction,
// returning ("", "") on a match.
func compareResponse(er *ExpectedResponse, wr *wireResponse) (kind, detail string) {
	if wr.Proto != er.Proto {
		return "proto", fmt.Sprintf("response proto %q, want %q", wr.Proto, er.Proto)
	}
	if wr.Status != er.Status {
		return "status", fmt.Sprintf("status %d, want %d", wr.Status, er.Status)
	}
	gotClose := hasWireToken(wr.Headers["connection"], "close")
	if er.Close && !gotClose {
		return "close-header", fmt.Sprintf("Connection %q lacks the close option the model requires", wr.Headers["connection"])
	}
	if !er.Close && gotClose {
		return "keep-header", "response carries Connection: close on a connection the model keeps alive"
	}
	cl, err := strconv.ParseInt(wr.Headers["content-length"], 10, 64)
	if err != nil || cl != er.BodyLen {
		return "content-length", fmt.Sprintf("Content-Length %q, want %d", wr.Headers["content-length"], er.BodyLen)
	}
	if !er.Head && !bytesEqual(wr.Body, er.Body) {
		return "body", fmt.Sprintf("body %s, want %s", abbrev(wr.Body), abbrev(er.Body))
	}
	for name, want := range er.Headers {
		if got := wr.Headers[lowerASCII(name)]; got != want {
			return "header", fmt.Sprintf("%s: %q, want %q", name, got, want)
		}
	}
	return "", ""
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// abbrev renders a body for mismatch details without flooding output.
func abbrev(b []byte) string {
	if len(b) <= 48 {
		return fmt.Sprintf("%q", b)
	}
	return fmt.Sprintf("%q... (%d bytes)", b[:48], len(b))
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}
