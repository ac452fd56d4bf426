package nserver

// TestShutdownRacesReadLoopsAndScavenger drives Shutdown into the middle
// of live traffic with both reapers armed (the O7 idle scavenger and the
// slow-client reaper), so the teardown path races active readLoops,
// in-flight replies and the scavenger's victim sweep. The -race run of
// this test is the regression fence for the connection-lifecycle locking.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestShutdownRacesReadLoopsAndScavenger(t *testing.T) {
	opts := testOptions()
	opts.ShutdownLongIdle = true
	opts.IdleTimeout = 5 * time.Millisecond
	opts = opts.WithHardening(8*time.Millisecond, time.Second, 1<<16)
	s, err := New(Config{Options: opts, App: echoApp(), Codec: lineCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ln); err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// A mixed population: busy clients echoing in a loop, idle clients
	// waiting to be reaped, and slow clients trickling partial requests.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 256)
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn.SetDeadline(time.Now().Add(200 * time.Millisecond))
				switch id % 3 {
				case 0: // busy: full request, read the echo
					fmt.Fprintf(conn, "ping-%d\n", id)
					if _, err := conn.Read(buf); err != nil {
						return
					}
				case 1: // slow: partial request, let the reaper find it
					if _, err := fmt.Fprint(conn, "tri"); err != nil {
						return
					}
					time.Sleep(2 * time.Millisecond)
				default: // idle: no bytes at all
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(i)
	}

	// Let traffic, the idle reaper and the slow-client reaper overlap,
	// then shut down in the middle of it all.
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown wedged against live readLoops/scavenger")
	}
	close(stop)
	wg.Wait()
	s.Shutdown() // idempotent after the race
	if n := s.ActiveConns(); n != 0 {
		t.Fatalf("%d connections survived shutdown", n)
	}
}

// TestShutdownRefusesLateAttach: a connection whose AcceptReady is still
// queued behind a busy worker when Shutdown sweeps the connection table
// must be refused, not attached after the sweep — there it would get
// OnConnect but never OnClose, and stay in ActiveConns.
func TestShutdownRefusesLateAttach(t *testing.T) {
	opts := testOptions()
	// One shard with one worker: no peer may steal the queued accept.
	opts.Shards = 1
	opts.EventThreads = 1
	opts.Profiling = true
	var connects, closes atomic.Int64
	held, release := make(chan struct{}), make(chan struct{})
	app := AppFuncs{
		// The first OnConnect holds the only worker, so the second
		// connection's AcceptReady waits in the queue behind it.
		Connect: func(*Conn) {
			if connects.Add(1) == 1 {
				close(held)
				<-release
			}
		},
		Close: func(*Conn, error) { closes.Add(1) },
	}
	s, err := New(Config{Options: opts, App: app, Codec: lineCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ln); err != nil {
		t.Fatal(err)
	}
	first := dial(t, ln.Addr().String())
	<-held
	second := dial(t, ln.Addr().String())
	deadline := time.Now().Add(5 * time.Second)
	for s.Profile().Snapshot().ConnectionsAccepted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second connection never accepted")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	// The sweep has run once it closed the first connection; only then
	// may the worker reach the queued accept.
	first.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := first.Read(make([]byte, 1)); err == nil {
		t.Fatal("first connection not closed by Shutdown")
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown wedged")
	}
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := second.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("late connection left open (read: %v)", err)
	}
	if n, c, cl := s.ActiveConns(), connects.Load(), closes.Load(); n != 0 || c != cl {
		t.Fatalf("%d conns left, %d OnConnect vs %d OnClose", n, c, cl)
	}
}
