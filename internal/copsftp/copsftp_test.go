package copsftp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ftpproto"
	"repro/internal/options"
)

// optionsWithLargeFiles is the COPS-FTP preset with the streaming
// threshold set and profiling on (so streamed-byte counters tick).
func optionsWithLargeFiles(threshold int64) options.Options {
	o := options.COPSFTP().WithLargeFiles(threshold)
	o.Profiling = true
	return o
}

// ftpClient is a minimal scripted FTP test client.
type ftpClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func newClient(t *testing.T, addr string) *ftpClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &ftpClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// expect reads one (possibly multi-line) reply and asserts its code.
func (c *ftpClient) expect(code int) string {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var text strings.Builder
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read reply: %v", err)
	}
	text.WriteString(line)
	if len(line) > 3 && line[3] == '-' {
		prefix := line[:3] + " "
		for !strings.HasPrefix(line, prefix) {
			line, err = c.r.ReadString('\n')
			if err != nil {
				c.t.Fatalf("read multiline reply: %v", err)
			}
			text.WriteString(line)
		}
	}
	got, err := strconv.Atoi(strings.TrimSpace(text.String())[:3])
	if err != nil {
		c.t.Fatalf("bad reply %q", text.String())
	}
	if got != code {
		c.t.Fatalf("reply = %q, want code %d", text.String(), code)
	}
	return text.String()
}

// cmd sends one command and asserts the reply code.
func (c *ftpClient) cmd(code int, format string, args ...any) string {
	c.t.Helper()
	fmt.Fprintf(c.conn, format+"\r\n", args...)
	return c.expect(code)
}

// login performs the anonymous login handshake.
func (c *ftpClient) login() {
	c.t.Helper()
	c.expect(220)
	c.cmd(331, "USER anonymous")
	c.cmd(230, "PASS guest@example.org")
}

// pasvData arranges a passive-mode data connection: it sends PASV, parses
// the reply and dials the announced endpoint.
func (c *ftpClient) pasvData() net.Conn {
	c.t.Helper()
	reply := c.cmd(227, "PASV")
	open := strings.Index(reply, "(")
	closeP := strings.Index(reply, ")")
	if open < 0 || closeP < open {
		c.t.Fatalf("bad PASV reply %q", reply)
	}
	host, port, err := ftpproto.ParsePortArg(reply[open+1 : closeP])
	if err != nil {
		c.t.Fatalf("parse PASV: %v", err)
	}
	dc, err := net.Dial("tcp", fmt.Sprintf("%s:%d", host, port))
	if err != nil {
		c.t.Fatalf("dial data: %v", err)
	}
	return dc
}

func buildRoot(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "pub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hello.txt"), []byte("hello ftp"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pub", "data.bin"), []byte("binary-data"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func startFTP(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing root accepted")
	}
	if _, err := New(Config{Root: "/no/such"}); err == nil {
		t.Error("nonexistent root accepted")
	}
}

func TestLoginFlow(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(215, "SYST")
	c.cmd(200, "NOOP")
	c.cmd(257, "PWD")
	c.cmd(221, "QUIT")
}

func TestRejectsBadLogin(t *testing.T) {
	users := ftpproto.NewUserStore(false)
	users.Add("zhuang", "secret")
	s := startFTP(t, Config{Root: buildRoot(t), Users: users})
	c := newClient(t, s.Addr())
	c.expect(220)
	c.cmd(530, "USER anonymous") // anonymous disabled
	c.cmd(331, "USER zhuang")
	c.cmd(530, "PASS wrong")
	c.cmd(331, "USER zhuang")
	c.cmd(230, "PASS secret")
}

func TestCommandsRequireLogin(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.expect(220)
	c.cmd(530, "PWD")
	c.cmd(530, "RETR hello.txt")
	c.cmd(530, "LIST")
}

func TestCwdAndPwd(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(250, "CWD pub")
	if reply := c.cmd(257, "PWD"); !strings.Contains(reply, `"/pub"`) {
		t.Errorf("PWD after CWD = %q", reply)
	}
	c.cmd(250, "CDUP")
	if reply := c.cmd(257, "PWD"); !strings.Contains(reply, `"/"`) {
		t.Errorf("PWD after CDUP = %q", reply)
	}
	c.cmd(550, "CWD nonexistent")
	// Escaping the root is silently clamped.
	c.cmd(250, "CWD ../../..")
	if reply := c.cmd(257, "PWD"); !strings.Contains(reply, `"/"`) {
		t.Errorf("PWD after escape attempt = %q", reply)
	}
}

func TestRetrPassive(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	dc := c.pasvData()
	c.cmd(150, "RETR hello.txt")
	data, err := io.ReadAll(dc)
	dc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello ftp" {
		t.Errorf("RETR data = %q", data)
	}
	c.expect(226)
}

func TestRetrLargeFileStreams(t *testing.T) {
	root := buildRoot(t)
	// Deterministic pattern so a dropped or reordered chunk cannot pass.
	big := make([]byte, 192<<10)
	for i := range big {
		big[i] = byte(i*11 + 7)
	}
	if err := os.WriteFile(filepath.Join(root, "big.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := optionsWithLargeFiles(64 << 10)
	s := startFTP(t, Config{Root: root, Options: &opts})
	c := newClient(t, s.Addr())
	c.login()
	dc := c.pasvData()
	c.cmd(150, "RETR big.bin")
	data, err := io.ReadAll(dc)
	dc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(big) || string(data) != string(big) {
		t.Errorf("streamed RETR returned %d bytes, want %d (content match: %v)",
			len(data), len(big), string(data) == string(big))
	}
	c.expect(226)
	if streamed := s.Framework().Profile().Snapshot().BytesStreamed; streamed != uint64(len(big)) {
		t.Errorf("BytesStreamed = %d, want %d", streamed, len(big))
	}
	// A small file on the same server still takes the buffered path.
	dc = c.pasvData()
	c.cmd(150, "RETR hello.txt")
	data, _ = io.ReadAll(dc)
	dc.Close()
	if string(data) != "hello ftp" {
		t.Errorf("small RETR after streaming = %q", data)
	}
	c.expect(226)
}

func TestRetrMissingFile(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(550, "RETR nope.txt")
	c.cmd(501, "RETR")
}

func TestListPassive(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	dc := c.pasvData()
	c.cmd(150, "LIST")
	data, _ := io.ReadAll(dc)
	dc.Close()
	c.expect(226)
	listing := string(data)
	if !strings.Contains(listing, "hello.txt") || !strings.Contains(listing, "pub") {
		t.Errorf("LIST output:\n%s", listing)
	}
	if !strings.Contains(listing, "drw") {
		t.Errorf("directory flag missing:\n%s", listing)
	}
}

func TestNlstNamesOnly(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	dc := c.pasvData()
	c.cmd(150, "NLST")
	data, _ := io.ReadAll(dc)
	dc.Close()
	c.expect(226)
	got := strings.Fields(strings.ReplaceAll(string(data), "\r", ""))
	if len(got) != 2 || got[0] != "hello.txt" || got[1] != "pub" {
		t.Errorf("NLST = %v", got)
	}
}

func TestStorUpload(t *testing.T) {
	root := buildRoot(t)
	s := startFTP(t, Config{Root: root})
	c := newClient(t, s.Addr())
	c.login()
	dc := c.pasvData()
	c.cmd(150, "STOR upload.txt")
	if _, err := dc.Write([]byte("uploaded contents")); err != nil {
		t.Fatal(err)
	}
	dc.Close()
	c.expect(226)
	data, err := os.ReadFile(filepath.Join(root, "upload.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "uploaded contents" {
		t.Errorf("stored %q", data)
	}
}

func TestReadOnlyRefusesWrites(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t), ReadOnly: true})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(550, "STOR x.txt")
	c.cmd(550, "DELE hello.txt")
	c.cmd(550, "MKD newdir")
	c.cmd(550, "RMD pub")
}

func TestFileManagementCommands(t *testing.T) {
	root := buildRoot(t)
	s := startFTP(t, Config{Root: root})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(257, "MKD newdir")
	if fi, err := os.Stat(filepath.Join(root, "newdir")); err != nil || !fi.IsDir() {
		t.Error("MKD did not create directory")
	}
	c.cmd(250, "RMD newdir")
	if _, err := os.Stat(filepath.Join(root, "newdir")); err == nil {
		t.Error("RMD did not remove directory")
	}
	if reply := c.cmd(213, "SIZE hello.txt"); !strings.Contains(reply, "213 9") {
		t.Errorf("SIZE = %q", reply)
	}
	c.cmd(350, "RNFR hello.txt")
	c.cmd(250, "RNTO renamed.txt")
	if _, err := os.Stat(filepath.Join(root, "renamed.txt")); err != nil {
		t.Error("rename failed")
	}
	c.cmd(503, "RNTO orphan.txt") // RNTO without RNFR
	c.cmd(250, "DELE renamed.txt")
	if _, err := os.Stat(filepath.Join(root, "renamed.txt")); err == nil {
		t.Error("DELE did not remove file")
	}
}

func TestTypeModeStru(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(200, "TYPE I")
	c.cmd(200, "TYPE A")
	c.cmd(501, "TYPE X")
	c.cmd(200, "MODE S")
	c.cmd(200, "STRU F")
	c.cmd(502, "XYZZY")
}

func TestFeatMultiline(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.expect(220)
	reply := c.cmd(211, "FEAT")
	if !strings.Contains(reply, "PASV") || !strings.Contains(reply, "SIZE") {
		t.Errorf("FEAT = %q", reply)
	}
}

func TestRetrWithoutDataConnection(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t), DataTimeout: 100 * time.Millisecond})
	c := newClient(t, s.Addr())
	c.login()
	c.cmd(150, "RETR hello.txt")
	c.expect(425) // no PASV/PORT arranged
}

// TestPipelinedCommandWaitsForTransferReply: a command pipelined behind a
// transfer, in the same write, is answered after the transfer's closing
// reply, which the transfer goroutine sends once the data connection is
// done: 150, then 226 (or 425 with no data connection arranged), then
// the NOOP's 200.
func TestPipelinedCommandWaitsForTransferReply(t *testing.T) {
	t.Run("226", func(t *testing.T) {
		s := startFTP(t, Config{Root: buildRoot(t)})
		c := newClient(t, s.Addr())
		c.login()
		dc := c.pasvData()
		defer dc.Close()
		fmt.Fprint(c.conn, "RETR hello.txt\r\nNOOP\r\n")
		c.expect(150)
		if data, err := io.ReadAll(dc); err != nil || string(data) != "hello ftp" {
			t.Fatalf("RETR data = %q, %v", data, err)
		}
		c.expect(226)
		c.expect(200)
	})
	t.Run("425", func(t *testing.T) {
		s := startFTP(t, Config{Root: buildRoot(t), DataTimeout: 100 * time.Millisecond})
		c := newClient(t, s.Addr())
		c.login()
		fmt.Fprint(c.conn, "RETR hello.txt\r\nNOOP\r\n")
		c.expect(150)
		c.expect(425)
		c.expect(200)
	})
}

func TestActiveModePort(t *testing.T) {
	s := startFTP(t, Config{Root: buildRoot(t)})
	c := newClient(t, s.Addr())
	c.login()
	// The client listens; the server dials in (active mode).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().(*net.TCPAddr)
	c.cmd(200, "PORT 127,0,0,1,%d,%d", addr.Port/256, addr.Port%256)
	done := make(chan []byte, 1)
	go func() {
		dc, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		data, _ := io.ReadAll(dc)
		dc.Close()
		done <- data
	}()
	c.cmd(150, "RETR pub/data.bin")
	select {
	case data := <-done:
		if string(data) != "binary-data" {
			t.Errorf("active RETR = %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("active-mode transfer never happened")
	}
	c.expect(226)
}
