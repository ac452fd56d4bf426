package nserver

import (
	"bufio"
	"fmt"
	"net"
	"syscall"
	"testing"
)

// tcpNoDelay reads TCP_NODELAY off a TCP transport's socket.
func tcpNoDelay(nc net.Conn) (int, error) {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		return 0, fmt.Errorf("transport is %T, not *net.TCPConn", nc)
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return 0, err
	}
	var v int
	var gerr error
	if err := rc.Control(func(fd uintptr) {
		v, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
	}); err != nil {
		return 0, err
	}
	return v, gerr
}

// TestAcceptedConnIsNoDelay pins TCP_NODELAY on every connection the
// runtime accepts, through the single listener and through per-shard
// SO_REUSEPORT listeners. Keep-alive streams answer with many small
// replies, and Nagle coalescing against delayed ACKs would serialize
// them. attach sets nothing itself: Go's accept path already sets the
// option on every *net.TCPConn.
func TestAcceptedConnIsNoDelay(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := testOptions()
			o.Shards = shards
			app := AppFuncs{Request: func(c *Conn, _ any) {
				v, err := tcpNoDelay(c.conn)
				_ = c.Reply(fmt.Sprintf("nodelay=%d err=%v", v, err))
			}}
			s, err := New(Config{Options: o, App: app, Codec: lineCodec{}})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Shutdown)
			client := dial(t, s.Addr().String())
			if _, err := client.Write([]byte("q\n")); err != nil {
				t.Fatal(err)
			}
			line, err := bufio.NewReader(client).ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if line != "nodelay=1 err=<nil>\n" {
				t.Fatalf("accepted conn reports %q, want TCP_NODELAY set", line)
			}
		})
	}
}
