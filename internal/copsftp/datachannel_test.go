package copsftp

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// TestStorResetAnswers426: an upload whose data connection is reset
// partway is a failed transfer, not a complete one: the control
// connection reads 426, not 226.
func TestStorResetAnswers426(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	dc := c.pasvData()
	c.cmd(150, "STOR part.bin")
	if _, err := dc.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := dc.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	dc.Close()
	c.expect(426)
	c.cmd(200, "NOOP")
}

// TestPasvAdvertisesControlAddress: PASV listens on, and advertises, the
// address the client reached the control connection on, so a client
// that is not on 127.0.0.1 can open the data connection.
func TestPasvAdvertisesControlAddress(t *testing.T) {
	s, err := New(Config{Root: buildRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("127.0.0.2:0"); err != nil {
		t.Skipf("127.0.0.2 unavailable: %v", err)
	}
	t.Cleanup(s.Shutdown)
	c := newClient(t, s.Addr())
	c.login()
	if reply := c.cmd(227, "PASV"); !strings.Contains(reply, "(127,0,0,2,") {
		t.Fatalf("PASV reply %q, want 127,0,0,2", reply)
	}
	dc := c.pasvData()
	c.cmd(150, "RETR hello.txt")
	data, err := io.ReadAll(dc)
	dc.Close()
	if err != nil || string(data) != "hello ftp" {
		t.Errorf("RETR over PASV on 127.0.0.2 = %q, %v", data, err)
	}
	c.expect(226)
}

// TestPortRefusesThirdPartyHost: PORT names only the client's own
// address (RFC 2577 §3, the FTP bounce attack); another host is refused
// with 504 and arranges nothing.
func TestPortRefusesThirdPartyHost(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t), DataTimeout: 100 * time.Millisecond})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(504, "PORT 127,0,0,2,10,10")
	c.cmd(504, "PORT 10,0,0,1,0,21")
	c.cmd(150, "RETR hello.txt")
	c.expect(425) // the refused PORTs arranged no data connection
}

// TestStalledDataConnection: a PASV client that never reads a RETR
// larger than the socket buffers stalls the data connection's writes.
// WriteTimeout bounds the stall, the control connection reads 426, and
// after Shutdown the server leaves no goroutine or descriptor behind.
func TestStalledDataConnection(t *testing.T) {
	root := buildRoot(t)
	if err := os.WriteFile(filepath.Join(root, "big.bin"), make([]byte, 16<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	fds, goroutines := openDescriptors(), runtime.NumGoroutine()
	opts := options.COPSFTP().WithHardening(0, 200*time.Millisecond, 0)
	s, err := New(Config{Root: root, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			s.Shutdown()
		}
	}()
	c := newClient(t, s.Addr())
	c.login()
	dc := c.pasvData()
	_ = dc.(*net.TCPConn).SetReadBuffer(16 << 10)
	c.cmd(150, "RETR big.bin")
	c.expect(426)
	dc.Close()
	c.conn.Close()
	s.Shutdown()
	stopped = true
	deadline := time.Now().Add(5 * time.Second)
	for {
		nfds, ngs := openDescriptors(), runtime.NumGoroutine()
		if nfds <= fds && ngs <= goroutines {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Shutdown: %d descriptors (baseline %d), %d goroutines (baseline %d)",
				nfds, fds, ngs, goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openDescriptors counts this process's open descriptors (0 without
// /proc, which makes the descriptor check vacuous there).
func openDescriptors() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
