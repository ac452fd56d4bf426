package copshttp

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// halfCloseConns is how many connections each half-close shape opens: a
// reply lost to the race between the peer's EOF and the drain shows up
// in some of them even when it does not in one.
const halfCloseConns = 16

// halfCloseShape is one request pattern sent before the client's
// CloseWrite, with the statuses it must be answered with, in order.
type halfCloseShape struct {
	name string
	// req renders the bytes sent on connection i.
	req  func(i int) string
	want []int
	head bool
}

// halfCloseShapes covers the request shapes whose replies a peer's EOF
// used to cut off: a keep-alive GET whose file is not cached yet (its
// reply waits on an aio completion), HEAD, an HTTP/1.0 GET, an
// If-Modified-Since GET, and a pipelined pair.
func halfCloseShapes() []halfCloseShape {
	future := time.Now().Add(time.Hour).UTC().Format(time.RFC1123)
	future = future[:len(future)-3] + "GMT"
	return []halfCloseShape{
		{name: "keepalive-cold", want: []int{200}, req: func(i int) string {
			return fmt.Sprintf("GET /cold/%d.txt HTTP/1.1\r\nHost: t\r\n\r\n", i)
		}},
		{name: "head", want: []int{200}, head: true, req: func(int) string {
			return "HEAD /about.txt HTTP/1.1\r\nHost: t\r\n\r\n"
		}},
		{name: "http10", want: []int{200}, req: func(int) string {
			return "GET /about.txt HTTP/1.0\r\n\r\n"
		}},
		{name: "if-modified-since", want: []int{304}, req: func(int) string {
			return "GET /about.txt HTTP/1.1\r\nHost: t\r\nIf-Modified-Since: " + future + "\r\n\r\n"
		}},
		{name: "pipelined-pair", want: []int{200, 200}, req: func(int) string {
			return "GET /about.txt HTTP/1.1\r\nHost: t\r\n\r\nGET /img/logo.png HTTP/1.1\r\nHost: t\r\n\r\n"
		}},
	}
}

// buildHalfCloseRoot is buildDocRoot plus one file per cold-cache
// connection, so every keepalive-cold request misses the cache.
func buildHalfCloseRoot(t *testing.T) string {
	t.Helper()
	root := buildDocRoot(t)
	if err := os.MkdirAll(filepath.Join(root, "cold"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < halfCloseConns; i++ {
		name := filepath.Join(root, "cold", fmt.Sprintf("%d.txt", i))
		if err := os.WriteFile(name, []byte(fmt.Sprintf("cold %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// checkHalfClose sends each shape's request on halfCloseConns fresh
// connections to addr, half-closes each, and expects every reply and
// then EOF: the peer's EOF ends its inbound stream, not the replies to
// what it sent before.
func checkHalfClose(t *testing.T, addr string) {
	t.Helper()
	for _, sh := range halfCloseShapes() {
		lost := 0
		for i := 0; i < halfCloseConns; i++ {
			if err := halfCloseExchange(addr, sh.req(i), sh.want, sh.head); err != nil {
				lost++
				if lost == 1 {
					t.Errorf("%s: conn %d: %v", sh.name, i, err)
				}
			}
		}
		if lost > 0 {
			t.Errorf("%s: %d of %d half-closed connections lost a reply", sh.name, lost, halfCloseConns)
		}
	}
}

// halfCloseExchange runs one connection of checkHalfClose.
func halfCloseExchange(addr, req string, want []int, head bool) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(req)); err != nil {
		return err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	r := bufio.NewReader(conn)
	for j, w := range want {
		status, _, _, err := readResponse(r, head)
		if err != nil {
			return fmt.Errorf("reply %d: %v", j, err)
		}
		if status != w {
			return fmt.Errorf("reply %d: status %d, want %d", j, status, w)
		}
	}
	if b, err := r.ReadByte(); err == nil {
		return fmt.Errorf("byte %q after the last reply, want EOF", b)
	}
	return nil
}

// TestHalfCloseRepliesThenEOF: a client that sends its requests and
// then shuts down its write side gets every reply, then EOF.
func TestHalfCloseRepliesThenEOF(t *testing.T) {
	s := startHTTP(t, Config{DocRoot: buildHalfCloseRoot(t)})
	checkHalfClose(t, s.Addr())
}
