package nserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/options"
	"repro/internal/reactor"
)

// The tests in this file pin the corked window (decodeLoop, uncork): a
// pipelined window the FastPath hook serves leaves in one gathered write,
// and each point where the cork lifts — pass end, punt, decode teardown,
// a deferred Close — delivers every reply committed before it.

// corkCodec is lineCodec with a decode error: a line starting with '!'
// is malformed and tears the connection down.
type corkCodec struct{ bufLineCodec }

func (corkCodec) Decode(buf []byte) (any, int, error) {
	req, n, err := lineCodec{}.Decode(buf)
	if s, ok := req.(string); ok && strings.HasPrefix(s, "!") {
		return nil, 0, errors.New("corkCodec: malformed request")
	}
	return req, n, err
}

// corkHook is a test FastPath hook over "<verb> <n>" request lines:
//
//	get N      served inline: "R N " then an N-byte body of 'b' ending in a newline
//	slow N     declined, so the queued Handle (corkApp) answers it
//	close N    served inline by closing the connection
//
// parked records whether any request was served on a parked connection,
// where the sink may split a write on its own.
type corkHook struct{ parked atomic.Bool }

func (h *corkHook) serve(c *Conn, req any) bool {
	verb, arg, _ := strings.Cut(req.(string), " ")
	switch verb {
	case "get":
		n, _ := strconv.Atoi(arg)
		h.parked.Store(h.parked.Load() || c.Parked())
		c.BeginRequest()
		_ = c.SendBuffers([]byte("R "+arg+" "), corkBody(n))
		return true
	case "close":
		c.BeginRequest()
		_ = c.Close()
		return true
	}
	return false
}

// corkBody is an n-byte reply body of 'b' ending in a newline.
func corkBody(n int) []byte {
	b := bytes.Repeat([]byte("b"), n)
	b[n-1] = '\n'
	return b
}

// corkApp answers the requests the hook declines, on the queued path.
func corkApp() App {
	return AppFuncs{Request: func(c *Conn, req any) {
		_ = c.Reply("Q " + req.(string) + "\n")
	}}
}

// startCork starts a profiled server with the cork hook on the given
// options and dials it.
func startCork(t *testing.T, opts options.Options) (*Server, *corkHook, net.Conn) {
	t.Helper()
	if opts.EventDriven && !reactor.PollerSupported {
		t.Skip("no kernel poller on this platform")
	}
	opts.Profiling = true
	opts.WriteTimeout = 5 * time.Second
	h := &corkHook{}
	s, addr := startServer(t, Config{Options: opts, App: corkApp(), Codec: corkCodec{}, FastPath: h.serve})
	c := dial(t, addr)
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	return s, h, c
}

// corkSinks are the two write sinks a fast-served window can take.
var corkSinks = []struct {
	name string
	opts func() options.Options
}{
	{"goroutine-blocking", testOptions},
	{"polled-parking", edOptions},
}

// corkWindow renders pipelined request lines and the reply stream the hook
// and corkApp answer them with, in order. The first declined request
// punts the rest of the window to the queued path, so corkApp answers
// every request from there on.
func corkWindow(reqs ...string) (wire string, want []byte) {
	var w bytes.Buffer
	punted := false
	for _, r := range reqs {
		wire += r + "\n"
		verb, arg, _ := strings.Cut(r, " ")
		punted = punted || verb == "slow"
		if punted {
			w.WriteString("Q " + r + "\n")
			continue
		}
		n, _ := strconv.Atoi(arg)
		w.WriteString("R " + arg + " ")
		w.Write(corkBody(n))
	}
	return wire, w.Bytes()
}

// readStream reads exactly len(want) bytes and fails on the first
// difference.
func readStream(t *testing.T, c net.Conn, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("reading %d reply bytes: %v", len(want), err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("reply stream differs at byte %d of %d", i, len(want))
	}
}

// expectEOF fails unless the server closes the connection with no more
// bytes.
func expectEOF(t *testing.T, c net.Conn) {
	t.Helper()
	var b [1]byte
	if n, err := c.Read(b[:]); n != 0 || err != io.EOF {
		t.Fatalf("read %d bytes (%v) after the last reply, want EOF", n, err)
	}
}

// gets returns n "get" requests with bodies of size bytes.
func gets(n, size int) []string {
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = "get " + strconv.Itoa(size)
	}
	return reqs
}

// TestCorkOneWritePerWindow guards the pass-end uncork: a pipelined
// window of 16 fast-served requests costs exactly one reply write, its
// bytes in order, on both corkSinks. Without the uncork the window never
// leaves.
func TestCorkOneWritePerWindow(t *testing.T) {
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			s, _, c := startCork(t, sk.opts())
			reqs := gets(16, 100)
			for i := range reqs {
				reqs[i] = "get " + strconv.Itoa(100+i)
			}
			wire, want := corkWindow(reqs...)
			if _, err := io.WriteString(c, wire); err != nil {
				t.Fatal(err)
			}
			readStream(t, c, want)
			waitFor(t, "the window's counters", func() bool {
				snap := s.Profile().Snapshot()
				return snap.RequestsServed == 16 && snap.ReplyWrites >= 1
			})
			if snap := s.Profile().Snapshot(); snap.ReplyWrites != 1 || snap.BytesSent != uint64(len(want)) {
				t.Fatalf("ReplyWrites = %d BytesSent = %d, want 1 and %d",
					snap.ReplyWrites, snap.BytesSent, len(want))
			}
		})
	}
}

// TestCorkFlushBeforePunt guards the uncork before a punt: the hook
// declines request 5 of 8, so replies 1–4 must reach the peer before the
// queued reply to request 5. Without the flush the worker that takes over
// the drain inherits a corked connection and the window hangs.
func TestCorkFlushBeforePunt(t *testing.T) {
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			_, _, c := startCork(t, sk.opts())
			reqs := gets(8, 64)
			reqs[4] = "slow 5"
			wire, want := corkWindow(reqs...)
			if _, err := io.WriteString(c, wire); err != nil {
				t.Fatal(err)
			}
			readStream(t, c, want)
		})
	}
}

// TestCorkFlushBeforeDecodeTeardown guards the uncork before a decode
// error tears the connection down: the three replies served ahead of a
// malformed request arrive before the close.
func TestCorkFlushBeforeDecodeTeardown(t *testing.T) {
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			_, _, c := startCork(t, sk.opts())
			wire, want := corkWindow(gets(3, 64)...)
			if _, err := io.WriteString(c, wire+"!malformed\n"); err != nil {
				t.Fatal(err)
			}
			readStream(t, c, want)
			expectEOF(t, c)
		})
	}
}

// TestCorkFlushOnClose guards Close on a corked connection: a hook that
// closes on request 4 still delivers replies 1–3, then the connection
// closes and the requests behind the close get nothing.
func TestCorkFlushOnClose(t *testing.T) {
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			_, _, c := startCork(t, sk.opts())
			wire, want := corkWindow(gets(3, 64)...)
			if _, err := io.WriteString(c, wire+"close 4\nget 64\nget 64\n"); err != nil {
				t.Fatal(err)
			}
			readStream(t, c, want)
			expectEOF(t, c)
		})
	}
}

// TestCorkGatherBounds guards the gathered write's bounds: a window whose
// bodies exceed writeFlushChunk, and one with more than writeFlushSegs
// segments, leave in several bounded writes, byte-exact. The blocking sink
// writes each gather whole, so there its write count is exact; a parked
// connection may split a gather further. An unbounded vector past IOV_MAX
// fails writev(2) outright on the parking sink.
func TestCorkGatherBounds(t *testing.T) {
	for _, sk := range corkSinks {
		for _, tc := range []struct {
			name   string
			reqs   []string
			writes func(stream int) uint64
		}{
			{"bytes", gets(16, 32<<10), func(stream int) uint64 {
				return uint64((stream + writeFlushChunk - 1) / writeFlushChunk)
			}},
			{"segments", gets(1100, 2), func(int) uint64 {
				return (2*1100 + writeFlushSegs - 1) / writeFlushSegs
			}},
		} {
			t.Run(sk.name+"/"+tc.name, func(t *testing.T) {
				s, h, c := startCork(t, sk.opts())
				wire, want := corkWindow(tc.reqs...)
				if _, err := io.WriteString(c, wire); err != nil {
					t.Fatal(err)
				}
				readStream(t, c, want)
				writes := tc.writes(len(want))
				waitFor(t, "the window's counters", func() bool {
					snap := s.Profile().Snapshot()
					return snap.RequestsServed == uint64(len(tc.reqs)) && snap.BytesSent == uint64(len(want))
				})
				got := s.Profile().Snapshot().ReplyWrites
				if got < writes || (!h.parked.Load() && got != writes) {
					t.Fatalf("ReplyWrites = %d, want %d (parked=%v)", got, writes, h.parked.Load())
				}
			})
		}
	}
}

// TestCorkWindowSplitByRead: a window is what one read delivered, never
// held across a read. A request line split over two segments ends the
// first pass at a partial request, so the replies before the split leave
// before the client sends the rest.
func TestCorkWindowSplitByRead(t *testing.T) {
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			_, _, c := startCork(t, sk.opts())
			wire, want := corkWindow(gets(4, 32)...)
			if _, err := io.WriteString(c, wire+"get "); err != nil {
				t.Fatal(err)
			}
			readStream(t, c, want)
			rest, want := corkWindow("get 32")
			if _, err := io.WriteString(c, strings.TrimPrefix(rest, "get ")); err != nil {
				t.Fatal(err)
			}
			readStream(t, c, want)
		})
	}
}
