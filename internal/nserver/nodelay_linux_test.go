package nserver

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/options"
)

// wantSockOpts is what every accepted TCP connection carries: TCP_NODELAY
// on, and keep-alive on with Go's defaults (15 s idle, 15 s interval, 9
// probes).
const wantSockOpts = "nodelay=1 keepalive=1/15/15/9"

// sockOpts reads a socket's TCP_NODELAY and keep-alive options, in
// wantSockOpts's format.
func sockOpts(fd int) (string, error) {
	opts := [...]struct{ level, opt int }{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT},
	}
	var v [len(opts)]int
	for i, o := range opts {
		var err error
		if v[i], err = syscall.GetsockoptInt(fd, o.level, o.opt); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("nodelay=%d keepalive=%d/%d/%d/%d", v[0], v[1], v[2], v[3], v[4]), nil
}

// connSockOpts reads sockOpts off a TCP transport's socket.
func connSockOpts(nc net.Conn) (string, error) {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		return "", fmt.Errorf("transport is %T, not *net.TCPConn", nc)
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return "", err
	}
	var s string
	var gerr error
	if err := rc.Control(func(fd uintptr) { s, gerr = sockOpts(int(fd)) }); err != nil {
		return "", err
	}
	return s, gerr
}

// listeningFDs returns this process's listening sockets bound to port.
func listeningFDs(t *testing.T, port int) []int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	var fds []int
	for _, e := range ents {
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if v, err := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_ACCEPTCONN); err != nil || v != 1 {
			continue
		}
		sa, err := syscall.Getsockname(fd)
		if err != nil {
			continue
		}
		switch sa := sa.(type) {
		case *syscall.SockaddrInet4:
			if sa.Port == port {
				fds = append(fds, fd)
			}
		case *syscall.SockaddrInet6:
			if sa.Port == port {
				fds = append(fds, fd)
			}
		}
	}
	return fds
}

// startSockOptsServer serves, through ListenAndServe on loopback, a
// server whose every reply is the sockOpts of the connection it
// answers on.
func startSockOptsServer(t *testing.T, shards int) *Server {
	t.Helper()
	o := testOptions()
	o.Shards = shards
	app := AppFuncs{Request: func(c *Conn, _ any) {
		s, err := connSockOpts(c.conn)
		_ = c.Reply(fmt.Sprintf("%s err=%v", s, err))
	}}
	s, err := New(Config{Options: o, App: app, Codec: lineCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// TestAcceptedConnIsNoDelay pins the socket options of every connection
// the runtime accepts, with one shard and with connections fanned out
// across two. TCP_NODELAY: keep-alive streams answer with
// many small replies, and Nagle coalescing against delayed ACKs would
// serialize them. Keep-alive with Go's defaults, exactly what Go's own
// accept path sets: here the connection inherits it from its listener
// (see TestListenerCarriesKeepAlive). Go's accept path sets TCP_NODELAY
// on every *net.TCPConn; attach sets nothing itself unless a write bound
// is armed (TestNotSentLowatOnlyUnderWriteBound).
func TestAcceptedConnIsNoDelay(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := startSockOptsServer(t, shards)
			for i := 0; i < 2*shards; i++ {
				client := dial(t, s.Addr().String())
				if _, err := client.Write([]byte("q\n")); err != nil {
					t.Fatal(err)
				}
				line, err := bufio.NewReader(client).ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				if want := wantSockOpts + " err=<nil>\n"; line != want {
					t.Fatalf("accepted conn reports %q, want %q", line, want)
				}
			}
		})
	}
}

// TestListenerCarriesKeepAlive: ListenAndServe opens exactly one
// listening socket at every shard count, and sets Go's keep-alive
// defaults on it once, which Linux copies into every socket accept
// returns.
func TestListenerCarriesKeepAlive(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := startSockOptsServer(t, shards)
			fds := listeningFDs(t, s.Addr().(*net.TCPAddr).Port)
			if len(fds) != 1 {
				t.Fatalf("found %d listening sockets, want 1", len(fds))
			}
			for _, fd := range fds {
				got, err := sockOpts(fd)
				if err != nil {
					t.Fatal(err)
				}
				// TCP_NODELAY is not inherited: Go's accept sets it.
				if want := "nodelay=0 keepalive=1/15/15/9"; got != want {
					t.Fatalf("listening socket %d reports %q, want %q", fd, got, want)
				}
			}
		})
	}
}

// TestNotSentLowatOnlyUnderWriteBound: attach caps a connection's unsent
// bytes at notSentLowat exactly when its blocking writes are bounded (a
// WriteTimeout, or O7's IdleTimeout); every other connection keeps what
// a plain socket has, the host's net.ipv4.tcp_notsent_lowat.
func TestNotSentLowatOnlyUnderWriteBound(t *testing.T) {
	bounded := testOptions()
	bounded.WriteTimeout = 5 * time.Second
	for name, tc := range map[string]struct {
		o   options.Options
		set bool
	}{
		"unbounded":    {testOptions(), false},
		"WriteTimeout": {bounded, true},
		"O7":           {idleOptions(), true},
	} {
		t.Run(name, func(t *testing.T) {
			app := AppFuncs{Request: func(c *Conn, _ any) {
				v, err := notSentLowatOf(c.conn.(*net.TCPConn))
				_ = c.Reply(fmt.Sprintf("%d %v", v, err))
			}}
			_, addr := startServer(t, Config{Options: tc.o, App: app, Codec: lineCodec{}})
			client := dial(t, addr)
			plain, err := notSentLowatOf(client.(*net.TCPConn))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write([]byte("q\n")); err != nil {
				t.Fatal(err)
			}
			line, err := bufio.NewReader(client).ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			var v int
			var gerr string
			if _, err := fmt.Sscanf(line, "%d %s", &v, &gerr); err != nil || gerr != "<nil>" {
				t.Fatalf("reply %q (%v)", line, err)
			}
			want := plain
			if tc.set {
				want = notSentLowat
			}
			if v != want {
				t.Fatalf("TCP_NOTSENT_LOWAT = %d, want %d (a plain socket has %d)", v, want, plain)
			}
		})
	}
}

// notSentLowatOf reads conn's TCP_NOTSENT_LOWAT.
func notSentLowatOf(conn syscall.Conn) (int, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var v int
	var gerr error
	if err := rc.Control(func(fd uintptr) {
		v, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpNotSentLowat)
	}); err != nil {
		return 0, err
	}
	return v, gerr
}
