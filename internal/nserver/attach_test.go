package nserver

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// socketPair returns the two ends of one loopback TCP connection: the
// client's and the one a listener accepted.
func socketPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if server, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	return client, server
}

// TestAttachRunsItsOwnHooks: a transport the application connected
// itself runs, on a server with a codec, with the hooks it was attached
// with and no codec: Handle sees raw chunks and Send writes raw bytes.
// It counts in the live count but is not refused at MaxConnections, and
// the peer's EOF closes it cleanly. After Shutdown, Attach refuses.
func TestAttachRunsItsOwnHooks(t *testing.T) {
	o := testOptions()
	o.MaxConnections = 1
	s, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	accepted := dial(t, addr)
	_ = accepted.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := accepted.Write([]byte("hi\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := bufio.NewReader(accepted).ReadString('\n'); got != "echo: hi\n" {
		t.Fatalf("accepted connection replied %q, %v", got, err)
	}

	client, nc := socketPair(t)
	closed := make(chan error, 1)
	err := s.Attach(nc, AppFuncs{
		Request: func(c *Conn, req any) { _ = c.Send(req.([]byte)) },
		Close:   func(c *Conn, err error) { closed <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.inflightNow(); n != 2 {
		t.Fatalf("live count with the attached connection = %d, want 2", n)
	}
	if _, err := client.Write([]byte("raw, no codec")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len("raw, no codec"))
	if _, err := io.ReadFull(client, buf); err != nil || string(buf) != "raw, no codec" {
		t.Fatalf("attached connection echoed %q, %v", buf, err)
	}
	_ = client.(*net.TCPConn).CloseWrite()
	if b, err := bufio.NewReader(client).ReadByte(); err != io.EOF {
		t.Fatalf("after the peer's EOF: byte %q, err %v; want EOF", b, err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("OnClose err = %v, want nil after a clean EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose never ran")
	}
	waitFor(t, "the live count to drop", func() bool { return s.inflightNow() == 1 })

	s.Shutdown()
	late, nc := socketPair(t)
	if err := s.Attach(nc, AppFuncs{}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Attach after Shutdown = %v, want ErrConnClosed", err)
	}
	if _, err := late.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused transport: read err %v, want EOF", err)
	}
}

// TestEOFDrainsQueuedRequests: the peer's EOF ends the inbound stream,
// not the connection. Lines sent before the client's CloseWrite are all
// handled and answered — each reply fills a reserved position from a
// timer, long after the EOF was read — and only then does the
// connection close.
func TestEOFDrainsQueuedRequests(t *testing.T) {
	app := AppFuncs{Request: func(c *Conn, req any) {
		slot := c.Reserve()
		line := req.(string)
		time.AfterFunc(10*time.Millisecond, func() { _ = slot.Reply("late: " + line) })
	}}
	_, addr := startServer(t, Config{Options: testOptions(), App: app, Codec: lineCodec{}})
	for i := 0; i < 8; i++ {
		conn := dial(t, addr)
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte("a\nb\nc\n")); err != nil {
			t.Fatal(err)
		}
		_ = conn.(*net.TCPConn).CloseWrite()
		got, err := io.ReadAll(conn)
		if err != nil || string(got) != "late: a\nlate: b\nlate: c\n" {
			t.Fatalf("conn %d: read %q, %v; want three replies, then EOF", i, got, err)
		}
	}
}
