//go:build linux && !race

package nserver

import (
	"io"
	"net"
	"testing"
)

// TestHotPathAllocsNonblockWritev pins the non-blocking sink's gathered
// write, nonblockWritev, at zero allocations: the reply path calls it
// once per pipelined window, and a per-call closure or iovec would put
// garbage back on it. (Under -race sync.Pool drops values at random, so
// the file is excluded there.)
func TestHotPathAllocsNonblockWritev(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client := dial(t, ln.Addr().String())
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	defer server.Close()
	go func() { _, _ = io.Copy(io.Discard, client) }()
	raw := rawConnOf(server)
	segs := make([][]byte, 32)
	for i := range segs {
		segs[i] = []byte("segment ")
	}
	write := func() {
		if n, again, err := nonblockWritev(raw, segs); err != nil || again || n != 32*8 {
			t.Fatalf("writev: n=%d again=%v err=%v", n, again, err)
		}
	}
	write()
	if allocs := testing.AllocsPerRun(200, write); allocs != 0 {
		t.Fatalf("nonblockWritev: %.0f allocs/op, want 0", allocs)
	}
}
