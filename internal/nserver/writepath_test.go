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
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
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
// identically: the non-blocking sink of a descriptor-exposing connection,
// where the replies park and the write pump drains them with blocking
// writes under the per-chunk write deadline, and the blocking sink of a
// wrapped transport that hides its descriptor.
//
// The fast variant serves the stream through a FastPath hook instead, so
// it arrives as one window: every reply, the file range included, waits
// behind the window's reserved position, the fill's gathered write hits
// EAGAIN with over 4 MiB queued, and the rest of the window parks.
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
		name    string
		wrapped bool
		fast    bool
	}{
		{name: "raw-parking"},
		{name: "raw-parking-fast", fast: true},
		{name: "wrapped-blocking", wrapped: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parks := !tc.wrapped
			if parks {
				skipWithoutParking(t)
			}
			app := mixedReplyApp(t, path)
			cfg := Config{Options: withTimeout(testOptions()), App: app, Codec: bufLineCodec{}}
			if tc.fast {
				cfg.FastPath = func(c *Conn, req any) bool {
					c.BeginRequest()
					app.Handle(c, req)
					return true
				}
			}
			s, addr := startServerOn(t, cfg, tc.wrapped)
			c := slowClient(t, addr)
			if _, err := c.Write([]byte(requests)); err != nil {
				t.Fatal(err)
			}
			if parks {
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
			if tc.fast && snap.DirectDispatched != 7 {
				t.Fatalf("DirectDispatched = %d, want all 7 served inline", snap.DirectDispatched)
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
// teardown, the write pump and finalize all touch the queue.
func TestParkedTeardownReleasesOwnedResources(t *testing.T) {
	skipWithoutParking(t)
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
	s, addr := startServer(t, Config{Options: testOptions(), App: app, Codec: bufLineCodec{}})
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
