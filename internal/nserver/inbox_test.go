package nserver

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTeardownReleasesQueuedChunks tears down a goroutine-path connection
// while its inbox holds a backlog — the drain owner is stuck in a slow
// Handle when the peer resets — and checks the queued leases are released
// once (bufpool panics on a double release, which would abort finalize
// before OnClose), the inbox is closed to late reads, and the reader
// goroutine exits. Run it under -race: the reader, the stuck drain and
// finalize all touch the inbox concurrently.
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
	// Reset the connection: the reader sees ECONNRESET and tears down
	// while the drain owner is still inside Handle.
	_ = nc.(*net.TCPConn).SetLinger(0)
	nc.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose never ran after the reset")
	}
	unblock.Do(func() { close(release) })

	conn.inMu.Lock()
	left, inClosed := len(conn.inbox), conn.inClosed
	conn.inMu.Unlock()
	if left != 0 || !inClosed {
		t.Fatalf("inbox after finalize: %d chunks left, closed=%v", left, inClosed)
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
