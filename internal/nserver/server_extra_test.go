package nserver

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/logging"
	"repro/internal/options"
)

func TestAccessorsAndListenAndServe(t *testing.T) {
	o := testOptions()
	o.Logging = true
	logBuf := &bytes.Buffer{}
	s, err := New(Config{
		Options: o, App: echoApp(), Codec: lineCodec{},
		Logger: logging.NewLogger(logBuf, logging.LevelDebug),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != nil {
		t.Error("Addr before start should be nil")
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if s.Addr() == nil {
		t.Error("Addr after start nil")
	}
	if s.Options().EventThreads != o.EventThreads {
		t.Error("Options() mismatch")
	}
	if s.Logger() == nil {
		t.Error("Logger() nil with O12 on")
	}
	s.Logger().Infof("wired")
	if !bytes.Contains(logBuf.Bytes(), []byte("wired")) {
		t.Error("logger not wired")
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Error("double ListenAndServe allowed")
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	s, err := New(Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("256.256.256.256:99999"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestLoggerNilWhenO12Off(t *testing.T) {
	s, err := New(Config{
		Options: testOptions(), App: echoApp(), Codec: lineCodec{},
		Logger: logging.NewLogger(&bytes.Buffer{}, logging.LevelDebug),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Logger() != nil {
		t.Error("Logger() non-nil with O12 off")
	}
}

func TestServerSideClose(t *testing.T) {
	app := AppFuncs{
		Request: func(c *Conn, req any) {
			_ = c.Reply("bye")
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		},
	}
	_, addr := startServer(t, Config{Options: testOptions(), App: app, Codec: lineCodec{}})
	conn := dial(t, addr)
	fmt.Fprint(conn, "quit\n")
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || line != "bye\n" {
		t.Fatalf("reply %q err %v", line, err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadByte(); err == nil {
		t.Error("connection open after server-side Close")
	}
	// Send/Reply after close fail fast.
}

func TestSendAfterCloseFails(t *testing.T) {
	ready := make(chan *Conn, 1)
	app := AppFuncs{Connect: func(c *Conn) { ready <- c }}
	_, addr := startServer(t, Config{Options: testOptions(), App: app, Codec: lineCodec{}})
	_ = dial(t, addr)
	c := <-ready
	_ = c.Close()
	if err := c.Send([]byte("late")); err != ErrConnClosed {
		t.Errorf("Send after close = %v", err)
	}
}

func TestReplyWithoutCodecRequiresBytes(t *testing.T) {
	o := testOptions()
	o.Codec = false
	ready := make(chan *Conn, 1)
	app := AppFuncs{Connect: func(c *Conn) { ready <- c }}
	_, addr := startServer(t, Config{Options: o, App: app})
	_ = dial(t, addr)
	c := <-ready
	if err := c.Reply("not-bytes"); err == nil {
		t.Error("string reply accepted without codec")
	}
	if err := c.Reply([]byte("ok")); err != nil {
		t.Errorf("byte reply failed: %v", err)
	}
}

func TestDynamicAllocationServerEndToEnd(t *testing.T) {
	o := testOptions()
	o.Allocation = options.DynamicAllocation
	o.MinEventThreads = 1
	o.MaxEventThreads = 4
	_, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	conn := dial(t, addr)
	r := bufio.NewReader(conn)
	for i := 0; i < 20; i++ {
		fmt.Fprintf(conn, "m%d\n", i)
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTwoDispatcherThreads(t *testing.T) {
	o := testOptions()
	o.DispatcherThreads = 2
	_, addr := startServer(t, Config{Options: o, App: echoApp(), Codec: lineCodec{}})
	var conns []net.Conn
	for i := 0; i < 4; i++ {
		conns = append(conns, dial(t, addr))
	}
	for i, conn := range conns {
		fmt.Fprintf(conn, "c%d\n", i)
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil || line != fmt.Sprintf("echo: c%d\n", i) {
			t.Fatalf("conn %d: %q %v", i, line, err)
		}
	}
}
