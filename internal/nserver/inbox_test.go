package nserver

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestInboxBoundsReadAhead pipelines 2 MiB of requests behind a Handle
// that blocks on its first one: the reader must stop once maxInboxChunks
// chunks wait undrained (the blocked drain holds one more), and once
// Handle returns every reply must arrive, in order.
func TestInboxBoundsReadAhead(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var first sync.Once
	app := AppFuncs{Request: func(c *Conn, req any) {
		first.Do(func() {
			close(entered)
			<-release
		})
		_ = c.Reply(req.(string))
	}}
	o := testOptions()
	o.Profiling = true
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })

	const lines = 32 << 10 // of 64 bytes each: 2 MiB
	line := func(i int) string { return fmt.Sprintf("%063d", i) }
	nc := dial(t, addr)
	go func() {
		var burst bytes.Buffer
		for i := 0; i < lines; i++ {
			burst.WriteString(line(i) + "\n")
		}
		_, _ = nc.Write(burst.Bytes())
	}()
	<-entered
	// An unbounded reader takes the whole burst off the socket within
	// milliseconds; give it far longer than that to overrun.
	bound := uint64((maxInboxChunks + 1) * readChunkSize)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if got := s.Profile().Snapshot().BytesRead; got > bound {
			t.Fatalf("read %d bytes ahead of a blocked Handle, bound %d", got, bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	unblock.Do(func() { close(release) })

	_ = nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(nc)
	for i := 0; i < lines; i++ {
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if want := line(i) + "\n"; got != want {
			t.Fatalf("reply %d = %.20q..., want %.20q...", i, got, want)
		}
	}
}

// TestInboxBoundIsInBytes sends 200 lines of 384 bytes, one write each
// 1 ms apart, behind a Handle that blocks on the first line. The 76,800
// bytes fit the inbox's bound of maxInboxChunks × readChunkSize, so the
// reader must take all of them off the socket while Handle is blocked —
// reads that queue behind an undrained chunk fill it rather than each
// taking one of the inbox's places — and once Handle returns every reply
// must arrive, in order.
func TestInboxBoundIsInBytes(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var first sync.Once
	app := AppFuncs{Request: func(c *Conn, req any) {
		first.Do(func() {
			close(entered)
			<-release
		})
		_ = c.Reply(req.(string))
	}}
	o := testOptions()
	o.Profiling = true
	s, addr := startServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })

	const writes, size = 200, 384
	line := func(i int) string { return fmt.Sprintf("%0*d", size-1, i) }
	if writes*size > maxInboxChunks*readChunkSize {
		t.Fatal("the stream must fit the inbox's byte bound")
	}
	nc := dial(t, addr)
	go func() {
		for i := 0; i < writes; i++ {
			if _, err := nc.Write([]byte(line(i) + "\n")); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-entered
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got := s.Profile().Snapshot().BytesRead
		if got == writes*size {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read %d of %d bytes behind a blocked Handle", got, writes*size)
		}
	}
	unblock.Do(func() { close(release) })

	_ = nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(nc)
	for i := 0; i < writes; i++ {
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if want := line(i) + "\n"; got != want {
			t.Fatalf("reply %d = %.20q..., want %.20q...", i, got, want)
		}
	}
}

// TestTeardownReleasesQueuedChunks tears down a goroutine-path connection
// while its inbox holds a full backlog — the drain owner is stuck in a
// slow Handle and the reader waits for inbox space — and checks the
// queued leases are released once (bufpool panics on a double release,
// which would abort finalize before OnClose), the inbox is closed to late
// reads, and the teardown wakes the reader, which exits. Run it under
// -race: the reader, the stuck drain and finalize all touch the inbox
// concurrently.
func TestTeardownReleasesQueuedChunks(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	closed := make(chan error, 1)
	var first sync.Once
	var conn *Conn
	app := AppFuncs{
		Connect: func(c *Conn) { conn = c },
		Request: func(c *Conn, req any) {
			first.Do(func() {
				close(entered)
				<-release
			})
			_ = c.Reply("echo: " + req.(string))
		},
		Close: func(c *Conn, err error) { closed <- err },
	}
	_, addr := startServer(t, Config{Options: testOptions(), App: app, Codec: lineCodec{}})
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })
	baseline := runtime.NumGoroutine()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		burst := strings.Repeat("a line of backlog that the stuck drain never reaches\n", 1<<14)
		_, _ = nc.Write([]byte(burst))
	}()
	<-entered
	queued := func() int {
		conn.inMu.Lock()
		defer conn.inMu.Unlock()
		return len(conn.inbox) - conn.inHead
	}
	deadline := time.Now().Add(5 * time.Second)
	for queued() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("inbox never backed up (%d chunks queued)", queued())
		}
		time.Sleep(time.Millisecond)
	}
	// Reset the connection. The reader, throttled by the full inbox,
	// cannot see the reset; the application's Close tears the connection
	// down while the drain owner is still inside Handle.
	_ = nc.(*net.TCPConn).SetLinger(0)
	nc.Close()
	_ = conn.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose never ran after the reset")
	}
	unblock.Do(func() { close(release) })

	conn.inMu.Lock()
	left, finalized := len(conn.inbox), conn.closeState() == lifeFinalized
	conn.inMu.Unlock()
	if left != 0 || !finalized {
		t.Fatalf("inbox after finalize: %d chunks left, finalized=%v", left, finalized)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not return to %d:\n%s", baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
