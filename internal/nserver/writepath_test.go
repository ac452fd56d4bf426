package nserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/options"
	"repro/internal/reactor"
)

// mixedReplyApp answers each request line through a different entry of
// the Send Reply step, so one pipelined stream crosses every way a reply
// becomes an outbound item:
//
//	send N      Send of N bytes of 's' plus a newline
//	buffers N   SendBuffers of a "B " head and an N-byte body of 'v'
//	reply N     Reply rendering N bytes of 'r' plus a newline
//	file O L    ReplyFile of L bytes of path from offset O
//	empty       an empty Send, then "E\n"
func mixedReplyApp(t *testing.T, path string) App {
	return AppFuncs{
		Request: func(c *Conn, req any) {
			f := strings.Fields(req.(string))
			n := func(i int) int {
				v, err := strconv.Atoi(f[i])
				if err != nil {
					t.Errorf("bad request %q", req)
				}
				return v
			}
			var err error
			switch f[0] {
			case "send":
				err = c.Send([]byte(strings.Repeat("s", n(1)) + "\n"))
			case "buffers":
				err = c.SendBuffers([]byte("B "), []byte(strings.Repeat("v", n(1))+"\n"))
			case "reply":
				err = c.Reply(strings.Repeat("r", n(1)) + "\n")
			case "file":
				src, oerr := os.Open(path)
				if oerr != nil {
					t.Error(oerr)
					return
				}
				err = c.ReplyFile(fmt.Sprintf("FILE %d\n", n(2)), src, int64(n(1)), int64(n(2)))
				src.Close()
			case "empty":
				if err = c.Send(nil); err == nil {
					err = c.Send([]byte("E\n"))
				}
			}
			if err != nil {
				t.Errorf("%s: %v", f[0], err)
			}
		},
	}
}

// TestOneWritePathSameBytesOnEverySink pipelines one mixed reply stream —
// a Send over writeFlushChunk, a SendBuffers body, a rendered Reply, a file
// range over streamChunkSize from a non-zero offset, a zero-length file
// range, an empty Send — at a reader that is not reading, then reads it.
// Every sink must deliver it byte-exact and in order, and account for it
// identically: the blocking sink of a goroutine-path connection (with the
// write deadline re-armed per chunk), the blocking sink of an fd-hiding
// transport on an event-driven server, and the non-blocking sink of a
// parked connection, where the replies park and drain on EPOLLOUT.
//
// The fast variants serve the stream through a FastPath hook instead, so
// it arrives as one corked window. On the goroutine path the hook serves
// every request: the file range flushes the corked replies ahead of it.
// On a parked connection it declines the file ranges (the poller makes no
// filesystem call), so the cork lifts before the punt with 4 MiB queued:
// the gathered write hits EAGAIN, the rest of the window parks, and it
// drains on EPOLLOUT ahead of the queued replies.
func TestOneWritePathSameBytesOnEverySink(t *testing.T) {
	const fileLen = 3 << 20
	// Aperiodic bytes: a chunk re-sent from the wrong offset cannot
	// match by accident.
	pattern := make([]byte, fileLen)
	rand.New(rand.NewSource(1)).Read(pattern)
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, pattern, 0o644); err != nil {
		t.Fatal(err)
	}
	// The stream exceeds what the kernel can absorb (a 4 MiB autotuned
	// send buffer plus the client's clamped receive buffer), so on the
	// parking sink it must park, yet its memory stays under the 8 MiB cap.
	const off, flen, bufLen = 1000, 5<<19 + 7, 4 << 20
	requests := fmt.Sprintf("send %d\nbuffers %d\nreply 600\nfile %d %d\nfile 0 0\nempty\nreply 3\n",
		300<<10, bufLen, off, flen)
	var want bytes.Buffer
	want.WriteString(strings.Repeat("s", 300<<10) + "\n")
	want.WriteString("B " + strings.Repeat("v", bufLen) + "\n")
	want.WriteString(strings.Repeat("r", 600) + "\n")
	fmt.Fprintf(&want, "FILE %d\n", flen)
	want.Write(pattern[off : off+flen])
	want.WriteString("FILE 0\nE\nrrr\n")

	withTimeout := func(o options.Options) options.Options {
		o.WriteTimeout = 5 * time.Second
		o.Profiling = true
		return o
	}
	for _, tc := range []struct {
		name   string
		opts   options.Options
		opaque bool
		parks  bool
		fast   bool
	}{
		{name: "goroutine-blocking", opts: withTimeout(testOptions())},
		{name: "opaque-blocking", opts: withTimeout(edOptions()), opaque: true},
		{name: "polled-parking", opts: withTimeout(edOptions()), parks: true},
		{name: "goroutine-blocking-fast", opts: withTimeout(testOptions()), fast: true},
		{name: "polled-parking-fast", opts: withTimeout(edOptions()), parks: true, fast: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.EventDriven && !reactor.PollerSupported {
				t.Skip("no kernel poller on this platform")
			}
			app := mixedReplyApp(t, path)
			cfg := Config{Options: tc.opts, App: app, Codec: bufLineCodec{}}
			var parked atomic.Bool
			if tc.fast {
				cfg.FastPath = func(c *Conn, req any) bool {
					parked.Store(c.Parked())
					if c.Parked() && strings.HasPrefix(req.(string), "file") {
						return false
					}
					c.BeginRequest()
					app.Handle(c, req)
					return true
				}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var sl net.Listener = ln
			if tc.opaque {
				sl = opaqueListener{ln}
			}
			if err := s.Start(sl); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Shutdown)

			c := slowClient(t, ln.Addr().String())
			if _, err := c.Write([]byte(requests)); err != nil {
				t.Fatal(err)
			}
			if tc.parks {
				waitFor(t, "replies to park", func() bool { return s.ParkedWrites() == 1 })
			} else {
				time.Sleep(100 * time.Millisecond)
			}
			_ = c.SetReadDeadline(time.Now().Add(30 * time.Second))
			got := make([]byte, want.Len())
			if _, err := io.ReadFull(bufio.NewReaderSize(c, 64<<10), got); err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got, want.Bytes()); i >= 0 {
				t.Fatalf("reply stream differs at byte %d of %d", i, want.Len())
			}
			waitFor(t, "byte counters to settle", func() bool {
				return s.Profile().Snapshot().BytesSent == uint64(want.Len())
			})
			snap := s.Profile().Snapshot()
			if snap.BytesStreamed != flen {
				t.Fatalf("BytesStreamed = %d, want %d", snap.BytesStreamed, flen)
			}
			if inline := map[bool]uint64{false: 7, true: 3}[parked.Load()]; tc.fast && snap.DirectDispatched != inline {
				t.Fatalf("DirectDispatched = %d, want %d served inline", snap.DirectDispatched, inline)
			}
			if s.ParkedWrites() != 0 || s.OutboundQueuedBytes() != 0 {
				t.Fatalf("queue not empty after the stream: conns=%d bytes=%d",
					s.ParkedWrites(), s.OutboundQueuedBytes())
			}
		})
	}
}

// firstDiff returns the index of the first differing byte, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

// TestParkedTeardownReleasesOwnedResources parks a reply's head remainder
// and a file range — the queue owns a pooled lease and a dup'd descriptor
// for them — then resets the peer, and checks both are released exactly
// once: bufpool panics on a double release, and no descriptor of the
// file may survive the connection. Run it under -race: the reset's
// teardown, the EPOLLOUT flush and finalize all touch the queue.
func TestParkedTeardownReleasesOwnedResources(t *testing.T) {
	if !reactor.PollerSupported || runtime.GOOS != "linux" {
		t.Skip("no kernel poller on this platform")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const fileLen = 12 << 20
	path := filepath.Join(t.TempDir(), "parked.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), fileLen), 0o644); err != nil {
		t.Fatal(err)
	}
	replied := make(chan struct{})
	closed := make(chan error, 1)
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			_ = c.Reply(strings.Repeat("h", 6<<20) + "\n")
			f, err := os.Open(path)
			if err != nil {
				t.Error(err)
				return
			}
			_ = c.ReplyFile(fmt.Sprintf("FILE %d\n", fileLen), f, 0, fileLen)
			f.Close()
			close(replied)
		},
		Close: func(c *Conn, err error) { closed <- err },
	}
	s, addr := startServer(t, Config{Options: edOptions(), App: app, Codec: bufLineCodec{}})
	c := slowClient(t, addr)
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	// 12 MiB cannot fit in the socket buffers: the file range parks.
	select {
	case <-replied:
	case <-time.After(5 * time.Second):
		t.Fatal("ReplyFile never returned: the worker blocked instead of parking")
	}
	if s.ParkedWrites() != 1 || s.OutboundQueuedBytes() <= 0 {
		t.Fatalf("nothing parked: conns=%d bytes=%d", s.ParkedWrites(), s.OutboundQueuedBytes())
	}
	if n := openDescriptorsOf(t, path); n != 1 {
		t.Fatalf("%d descriptors of the file while parked, want the queue's one dup", n)
	}
	_ = c.(*net.TCPConn).SetLinger(0)
	c.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose never ran after the reset")
	}
	// finalize frees the queue before OnClose runs, so the dup must be
	// gone now — not later, when a collector finalizer would close a
	// leaked *os.File (collection is off for this test).
	if n := openDescriptorsOf(t, path); n != 0 {
		t.Fatalf("%d descriptors of the file survive the connection", n)
	}
	waitFor(t, "queue to be freed", func() bool { return s.OutboundQueuedBytes() == 0 && s.ActiveConns() == 0 })
}

// openDescriptorsOf counts this process's open descriptors on path.
func openDescriptorsOf(t *testing.T, path string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}
