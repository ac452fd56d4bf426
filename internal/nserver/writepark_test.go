package nserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// bufLineCodec extends the line codec with the BufferEncoder head render
// ReplyFile requires: a string reply becomes the head verbatim (the
// caller embeds any framing), with no in-memory body.
type bufLineCodec struct{ lineCodec }

func (bufLineCodec) AppendHead(dst []byte, reply any) ([]byte, []byte, error) {
	s, ok := reply.(string)
	if !ok {
		return nil, nil, fmt.Errorf("bufLineCodec: reply must be string, got %T", reply)
	}
	return append(dst, s...), nil, nil
}

// slowClient dials addr with a clamped receive buffer so the kernel can
// absorb only a little of a large reply — the rest must park server-side.
func slowClient(t *testing.T, addr string) net.Conn {
	t.Helper()
	c := dial(t, addr)
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.SetReadBuffer(64 << 10); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// bigReplyApp answers every request line with an n-byte body of repeated
// 'a' (the codec appends the trailing newline).
func bigReplyApp(n int) App {
	body := strings.Repeat("a", n)
	return AppFuncs{
		Request: func(c *Conn, req any) { _ = c.Reply(body) },
	}
}

func TestParkedWriteDrainsWhenReaderCatchesUp(t *testing.T) {
	skipWithoutParking(t)
	const bodyLen = 6 << 20 // over any sndbuf+rcvbuf absorb, under the 8 MB cap
	o := testOptions()
	o.Profiling = true
	s, addr := startServer(t, Config{Options: o, App: bigReplyApp(bodyLen), Codec: lineCodec{}})
	c := slowClient(t, addr)
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	// Without reading a byte, the reply must park rather than pin a worker.
	waitFor(t, "reply to park", func() bool { return s.ParkedWrites() == 1 })
	if q := s.OutboundQueuedBytes(); q <= 0 {
		t.Fatalf("OutboundQueuedBytes = %d while parked, want > 0", q)
	}
	// Now drain: the full body plus newline must arrive intact.
	_ = c.SetReadDeadline(time.Now().Add(30 * time.Second))
	got := make([]byte, bodyLen+1)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if got[bodyLen] != '\n' || !bytes.Equal(got[:bodyLen], bytes.Repeat([]byte("a"), bodyLen)) {
		t.Fatal("drained reply corrupted")
	}
	waitFor(t, "queue to empty", func() bool { return s.ParkedWrites() == 0 })
	if s.ActiveConns() != 1 {
		t.Fatalf("ActiveConns = %d after drain, want 1 (conn must survive)", s.ActiveConns())
	}
	if fs := s.Profile().FlushSnapshot(); fs.Count == 0 {
		t.Error("flush-latency histogram recorded no parked-reply drain")
	}
	// The connection must still serve requests after the parked episode.
	if _, err := c.Write([]byte("again\n")); err != nil {
		t.Fatal(err)
	}
	again := make([]byte, bodyLen+1)
	if _, err := io.ReadFull(c, again); err != nil {
		t.Fatal(err)
	}
}

func TestParkedWriteGracefulClose(t *testing.T) {
	skipWithoutParking(t)
	const bodyLen = 6 << 20
	body := strings.Repeat("b", bodyLen)
	o := testOptions()
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			_ = c.Reply(body)
			// Close with bytes still parked: the teardown must wait for
			// the queue to flush, not truncate the reply.
			_ = c.Close()
		},
	}
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	c := slowClient(t, addr)
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reply to park", func() bool { return s.ParkedWrites() == 1 })
	_ = c.SetReadDeadline(time.Now().Add(30 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != bodyLen+1 {
		t.Fatalf("read %d bytes before EOF, want %d", len(got), bodyLen+1)
	}
	if got[bodyLen] != '\n' || !bytes.Equal(got[:bodyLen], []byte(body)) {
		t.Fatal("graceful close truncated or corrupted the parked reply")
	}
	waitFor(t, "conn table to drain", func() bool { return s.ActiveConns() == 0 })
}

func TestParkedWriteOverflowSheds(t *testing.T) {
	skipWithoutParking(t)
	const bodyLen = 2 << 20
	o := testOptions()
	o.Profiling = true
	s, addr := startServer(t, Config{Options: o, App: bigReplyApp(bodyLen), Codec: lineCodec{}})
	c := slowClient(t, addr)
	// Pipeline far more reply bytes than sndbuf+rcvbuf+cap can hold
	// (12 x 2 MB against an 8 MB cap) without reading any of them.
	if _, err := c.Write(bytes.Repeat([]byte("go\n"), 12)); err != nil {
		t.Fatal(err)
	}
	// Until the accept has attached, an empty conn table would read as
	// "already shed".
	waitFor(t, "conn to attach", func() bool { return s.ActiveConns() == 1 || s.Profile().Snapshot().OutboundShed > 0 })
	waitFor(t, "overflowing conn to be shed", func() bool { return s.ActiveConns() == 0 })
	if shed := s.Profile().Snapshot().OutboundShed; shed == 0 {
		t.Error("outbound overflow teardown not counted in OutboundShed")
	}
	if s.ParkedWrites() != 0 || s.OutboundQueuedBytes() != 0 {
		t.Fatalf("queue accounting leaked after shed: conns=%d bytes=%d",
			s.ParkedWrites(), s.OutboundQueuedBytes())
	}
}

// TestParkedWriteSlowReaderReaped: a parked reply answers to the same
// per-chunk WriteTimeout as every blocking write. A peer that reads
// nothing fails the write pump's next deadline, and the connection is
// torn down with the deadline as its cause.
func TestParkedWriteSlowReaderReaped(t *testing.T) {
	skipWithoutParking(t)
	const bodyLen = 6 << 20
	o := testOptions()
	o.WriteTimeout = 80 * time.Millisecond
	closed := make(chan error, 1)
	app := AppFuncs{
		Request: func(c *Conn, req any) { _ = c.Reply(strings.Repeat("a", bodyLen)) },
		Close:   func(c *Conn, err error) { closed <- err },
	}
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	c := slowClient(t, addr)
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reply to park", func() bool { return s.ParkedWrites() == 1 })
	// Read nothing: the pump's blocking write must hit its deadline.
	select {
	case err := <-closed:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("slow reader torn down with %v, want the write deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow reader never torn down")
	}
	waitFor(t, "conn table to drain", func() bool { return s.ActiveConns() == 0 })
	if s.ParkedWrites() != 0 || s.OutboundQueuedBytes() != 0 {
		t.Fatalf("queue accounting leaked after teardown: conns=%d bytes=%d",
			s.ParkedWrites(), s.OutboundQueuedBytes())
	}
}

func TestParkedWriteReplyFileDrains(t *testing.T) {
	skipWithoutParking(t)
	// A file reply larger than the memory cap: the residual parks as a
	// descriptor + offset, so it must NOT trip the 8 MB in-memory cap.
	const fileLen = 12 << 20
	dir := t.TempDir()
	path := filepath.Join(dir, "big.bin")
	pattern := bytes.Repeat([]byte("0123456789abcdef"), fileLen/16)
	if err := os.WriteFile(path, pattern, 0o644); err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf("FILE %d\n", fileLen)
	o := testOptions()
	o.Profiling = true
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			f, err := os.Open(path)
			if err != nil {
				t.Error(err)
				return
			}
			// The app closes its descriptor as soon as ReplyFile returns,
			// exactly as copshttp does: the parked residual must survive
			// on the queue's own dup.
			err = c.ReplyFile(head, f, 0, fileLen)
			f.Close()
			if err != nil {
				t.Errorf("ReplyFile: %v", err)
			}
		},
	}
	s, addr := startServer(t, Config{Options: o, App: app, Codec: bufLineCodec{}})
	c := slowClient(t, addr)
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "file reply to park", func() bool { return s.ParkedWrites() == 1 })
	_ = c.SetReadDeadline(time.Now().Add(30 * time.Second))
	got := make([]byte, len(head)+fileLen)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:len(head)]) != head {
		t.Fatalf("head = %q, want %q", got[:len(head)], head)
	}
	if !bytes.Equal(got[len(head):], pattern) {
		t.Fatal("streamed file bytes corrupted through the parked path")
	}
	waitFor(t, "queue to empty", func() bool { return s.ParkedWrites() == 0 })
	snap := s.Profile().Snapshot()
	if snap.BytesStreamed != fileLen {
		t.Fatalf("BytesStreamed = %d, want exactly %d", snap.BytesStreamed, fileLen)
	}
	if snap.OutboundShed != 0 {
		t.Error("file residual tripped the in-memory cap; descriptors must not count")
	}
}

// budgetConn forwards writes until budget bytes have gone through, then
// fails mid-call: the final Write reports a partial count AND an error,
// the exact case a double-counting copy loop gets wrong.
type budgetConn struct {
	net.Conn
	budget int
	wrote  int
}

var errBudget = errors.New("write budget exhausted")

func (b *budgetConn) Write(p []byte) (int, error) {
	left := b.budget - b.wrote
	if left <= 0 {
		return 0, errBudget
	}
	if len(p) <= left {
		n, err := b.Conn.Write(p)
		b.wrote += n
		return n, err
	}
	n, err := b.Conn.Write(p[:left])
	b.wrote += n
	if err == nil {
		err = errBudget
	}
	return n, err
}

type budgetListener struct {
	net.Listener
	budget int
	conns  chan *budgetConn
}

func (l *budgetListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	bc := &budgetConn{Conn: c, budget: l.budget}
	l.conns <- bc
	return bc, nil
}

func TestReplyFileCountsExactOnPartialWriteError(t *testing.T) {
	// Satellite of the short-write audit: when the copy loop's final
	// Write accepts a partial count and then errors, BytesStreamed must
	// equal the bytes the transport accepted — not the bytes attempted,
	// and never double-counted across the retry boundary.
	const fileLen = 64 << 10
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), fileLen), 0o644); err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf("FILE %d\n", fileLen)
	budget := len(head) + 10_007 // fail partway into the streamed body
	o := testOptions()
	o.Profiling = true
	done := make(chan error, 1)
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			f, err := os.Open(path)
			if err != nil {
				done <- err
				return
			}
			defer f.Close()
			done <- c.ReplyFile(head, f, 0, fileLen)
		},
	}
	srv, err := New(Config{Options: o, App: app, Codec: bufLineCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bl := &budgetListener{Listener: ln, budget: budget, conns: make(chan *budgetConn, 1)}
	if err := srv.Start(bl); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)

	c := dial(t, ln.Addr().String())
	if _, err := c.Write([]byte("go\n")); err != nil {
		t.Fatal(err)
	}
	bc := <-bl.conns
	serr := <-done
	if serr == nil {
		t.Fatal("ReplyFile succeeded through a failing transport")
	}
	snap := srv.Profile().Snapshot()
	wantStreamed := uint64(bc.wrote - len(head))
	if snap.BytesStreamed != wantStreamed {
		t.Fatalf("BytesStreamed = %d, want %d (transport accepted %d incl. %d head)",
			snap.BytesStreamed, wantStreamed, bc.wrote, len(head))
	}
	if snap.BytesSent != uint64(bc.wrote) {
		t.Fatalf("BytesSent = %d, want %d", snap.BytesSent, bc.wrote)
	}
}
