package gen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/options"
)

// writeAppSrc is a generated-framework application exercising the Send
// Reply step: "big N" replies N bytes of 'b', "file" streams the file
// named on the command line through SendFile, and anything else is
// echoed.
const writeAppSrc = `package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"

	"genapp/nserver"
)

type hooks struct{ path string }

func (hooks) OnConnect(c *nserver.Communicator) {}

func (hooks) Decode(buf []byte) (any, int, error) {
	for i, b := range buf {
		if b == '\n' {
			return string(buf[:i]), i + 1, nil
		}
	}
	return nil, 0, nil
}

func (hooks) Encode(reply any) ([]byte, error) { return []byte(reply.(string)), nil }

func (h hooks) Handle(c *nserver.Communicator, req any) {
	cmd := req.(string)
	switch {
	case strings.HasPrefix(cmd, "big "):
		n, _ := strconv.Atoi(cmd[len("big "):])
		_ = c.Reply(strings.Repeat("b", n) + "\n")
	case cmd == "file":
		f, err := os.Open(h.path)
		if err != nil {
			c.Close()
			return
		}
		info, _ := f.Stat()
		_ = c.SendFile([]byte(fmt.Sprintf("FILE %d\n", info.Size())), f, 0, info.Size())
		f.Close()
	default:
		_ = c.Reply("echo: " + cmd + "\n")
	}
}

func (hooks) OnClose(c *nserver.Communicator, err error) {}

func main() {
	srv := nserver.NewServer(hooks{path: os.Args[1]})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr().String())
	srv.Serve(ln)
	select {}
}
`

// TestGeneratedWritePath drives the generated Send Reply step end to end:
// a reader that stops reading while a large buffered reply, a streamed
// file and a small echo are pipelined at it must still get all three
// byte-exact and in order, from the one flush loop blocking under the
// per-chunk write deadline.
func TestGeneratedWritePath(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	const bigLen, fileLen = 3 << 20, 3 << 20
	// Aperiodic bytes: a chunk re-sent from the wrong offset cannot
	// match by accident.
	pattern := make([]byte, fileLen)
	rand.New(rand.NewSource(1)).Read(pattern)
	path := filepath.Join(t.TempDir(), "big.bin")
	if err := os.WriteFile(path, pattern, 0o644); err != nil {
		t.Fatal(err)
	}
	o := options.COPSHTTP().WithLargeFiles(64<<10).WithHardening(0, 5*time.Second, 0)
	addr := startGenerated(t, o, writeAppSrc, path)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A clamped receive buffer absorbs little of the replies: the rest
	// must wait server-side while the client is not reading.
	if err := conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "big %d\nfile\nsmall\n", bigLen); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReaderSize(conn, 64<<10)
	big := make([]byte, bigLen+1)
	if _, err := io.ReadFull(r, big); err != nil {
		t.Fatalf("big reply: %v", err)
	}
	if big[bigLen] != '\n' || bytes.Count(big[:bigLen], []byte("b")) != bigLen {
		t.Fatal("big reply corrupted")
	}
	head, err := r.ReadString('\n')
	if want := fmt.Sprintf("FILE %d\n", fileLen); err != nil || head != want {
		t.Fatalf("file head = %q (%v), want %q", head, err, want)
	}
	body := make([]byte, fileLen)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("file body: %v", err)
	}
	if !bytes.Equal(body, pattern) {
		t.Fatal("streamed file bytes corrupted")
	}
	if line, err := r.ReadString('\n'); err != nil || line != "echo: small\n" {
		t.Fatalf("trailing echo = %q (%v)", line, err)
	}
}
