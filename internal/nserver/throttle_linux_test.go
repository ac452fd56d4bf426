package nserver

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// TestParkedQueueThrottlesReader: a pipelining peer that reads none of
// its replies is throttled. Once its queue parks, the server stops
// reading its requests instead of buffering their replies up to the
// outbound cap, so the connection lives and is never shed. The server's
// clamped send buffer parks the queue within the first few batches;
// behind an autotuned one the kernel takes megabytes of replies first,
// and a loopback peer flooding tiny writes can stall in retransmission
// backoff before they are sent.
func TestParkedQueueThrottlesReader(t *testing.T) {
	o := testOptions()
	o.Profiling = true
	closed := make(chan error, 1)
	app := AppFuncs{
		Request: func(c *Conn, req any) { _ = c.Reply(strings.Repeat("r", 512)) },
		Close:   func(c *Conn, err error) { closed <- err },
	}
	s, addr := startClampedServer(t, Config{Options: o, App: app, Codec: lineCodec{}})
	c := slowClient(t, addr)
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		batch := bytes.Repeat([]byte("go\n"), 128)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
			if _, err := c.Write(batch); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	waitFor(t, "the replies to park", func() bool { return s.ParkedWrites() == 1 })
	time.Sleep(100 * time.Millisecond)
	read := s.Profile().Snapshot().BytesRead
	time.Sleep(300 * time.Millisecond)
	snap := s.Profile().Snapshot()
	if snap.BytesRead != read {
		t.Fatalf("server kept reading a peer whose queue is parked: %d -> %d bytes", read, snap.BytesRead)
	}
	if snap.OutboundShed != 0 || s.ActiveConns() != 1 {
		t.Fatalf("throttled peer was shed: OutboundShed=%d ActiveConns=%d", snap.OutboundShed, s.ActiveConns())
	}
	select {
	case err := <-closed:
		t.Fatalf("throttled peer torn down: %v", err)
	default:
	}
}
