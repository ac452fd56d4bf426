package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// echoServe accepts connections from ln and echoes bytes until EOF.
func echoServe(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			io.Copy(c, c)
		}()
	}
}

func startEcho(t *testing.T, s Scenario) *Listener {
	t.Helper()
	ln, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go echoServe(ln)
	return ln
}

func TestTransparentWhenZero(t *testing.T) {
	ln := startEcho(t, Scenario{})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello through zero scenario")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
}

func TestRefuseEveryHardClosesNthConn(t *testing.T) {
	ln := startEcho(t, Scenario{RefuseEvery: 2})
	refused := 0
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if errors.Is(err, syscall.ECONNRESET) {
			// The reset beat the dialer's own connect check: still a
			// connect-time refusal.
			refused++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write([]byte("x"))
		if _, err := conn.Read(make([]byte, 1)); err != nil {
			refused++
		}
		conn.Close()
	}
	if refused != 2 {
		t.Fatalf("refused %d of 4 connections, want 2", refused)
	}
	if got := ln.Stats().Refused.Load(); got != 2 {
		t.Fatalf("Stats.Refused = %d, want 2", got)
	}
}

func TestCorruptionIsDeterministicPerSeed(t *testing.T) {
	// Two runs with the same seed corrupt the same bit; a different seed
	// corrupts a different one (for this payload/seed pair).
	run := func(seed int64) []byte {
		// The echo server reads through the scenario, so the echoed
		// payload carries the flipped bit.
		cl := startEcho(t, Scenario{Seed: seed, CorruptEvery: 1})
		conn, err := net.Dial("tcp", cl.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		payload := bytes.Repeat([]byte("abcd"), 64)
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, payload) {
			t.Fatal("no corruption injected")
		}
		return got
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different corruption")
	}
	if c := run(8); bytes.Equal(a, c) {
		t.Error("different seed produced identical corruption (suspicious)")
	}
}

func TestStallRespectsReadDeadline(t *testing.T) {
	// The server side stalls after 4 bytes; a read deadline set through
	// the wrapper must fire as a timeout instead of waiting out the stall.
	ln, err := Listen("127.0.0.1:0", Scenario{StallAfterBytes: 4, StallDuration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 16)
		if _, err := io.ReadFull(c, buf[:4]); err != nil {
			got <- err
			return
		}
		c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		_, err = c.Read(buf)
		got <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("12345678"))
	select {
	case err := <-got:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("stalled read returned %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled read ignored the deadline")
	}
	if ln.Stats().Stalls.Load() == 0 {
		t.Error("stall not recorded")
	}
}

func TestRSTAfterBytesAbortsMidStream(t *testing.T) {
	ln := startEcho(t, Scenario{RSTAfterBytes: 8})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	conn.Write(bytes.Repeat([]byte("z"), 64))
	// The echo conn aborts once 8 bytes have moved; the client eventually
	// observes an error (RST) instead of a clean 64-byte echo.
	_, err = io.ReadAll(conn)
	if err == nil {
		t.Fatal("expected reset, got clean EOF after full echo")
	}
	if ln.Stats().Resets.Load() == 0 {
		t.Error("reset not recorded")
	}
}

func TestPartialWritesStillDeliverEverything(t *testing.T) {
	ln := startEcho(t, Scenario{MaxWritePerCall: 3})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	payload := bytes.Repeat([]byte("0123456789"), 20)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fragmented writes corrupted the stream")
	}
}
