package copshttp

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/options"
)

// TestPipelinedRepliesNotDelayed is the TCP_NODELAY wire test: the server
// sets TCP_NODELAY on every accepted connection, so a burst of pipelined
// requests must stream back without Nagle/delayed-ACK coalescing stalls.
// With Nagle active each small reply segment can wait ~40ms for the
// peer's delayed ACK; 50 pipelined replies would then take two seconds.
// The budget below fails long before that.
func TestPipelinedRepliesNotDelayed(t *testing.T) {
	root := buildDocRoot(t)
	s := startHTTP(t, Config{DocRoot: root})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const pipelined = 50
	var req strings.Builder
	for i := 0; i < pipelined; i++ {
		req.WriteString("GET /about.txt HTTP/1.1\r\nHost: test\r\n\r\n")
	}
	start := time.Now()
	if _, err := conn.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < pipelined; i++ {
		status, _, body, err := readResponse(r, false)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if status != 200 || string(body) != "about text" {
			t.Fatalf("reply %d: status %d body %q", i, status, body)
		}
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("%d pipelined replies took %v — looks like Nagle coalescing delay", pipelined, elapsed)
	}
}

// TestShardedServeCorrectness runs the full HTTP pipeline with four
// runtime shards: every concurrent client must get correct replies, the
// connections must land on the shards, and the aggregated profile must
// account for every request regardless of which shard served it.
func TestShardedServeCorrectness(t *testing.T) {
	root := buildDocRoot(t)
	opts := options.COPSHTTP()
	opts.Profiling = true
	opts = opts.WithShards(4)
	s := startHTTP(t, Config{DocRoot: root, Options: &opts})

	fw := s.Framework()
	if got := fw.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}

	const clients = 16
	const reqsPerClient = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < reqsPerClient; i++ {
				fmt.Fprintf(conn, "GET /index.html HTTP/1.1\r\nHost: test\r\n\r\n")
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				status, _, body, err := readResponse(r, false)
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", i, err)
					return
				}
				if status != 200 || string(body) != "<html>home</html>" {
					errs <- fmt.Errorf("request %d: status %d body %q", i, status, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The aggregated profile must see every request; the per-shard
	// snapshots must sum to the aggregate. A fast-path request is counted
	// just after its reply leaves, so a client can read the last reply
	// before the count lands: wait for the counters to settle first.
	deadline := time.Now().Add(5 * time.Second)
	for fw.Profile().Snapshot().RequestsServed < clients*reqsPerClient && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snap := fw.Profile().Snapshot()
	if snap.RequestsServed != clients*reqsPerClient {
		t.Errorf("aggregated RequestsServed = %d, want %d", snap.RequestsServed, clients*reqsPerClient)
	}
	var perShard uint64
	for _, ss := range fw.Profile().ShardSnapshots() {
		perShard += ss.RequestsServed
	}
	if perShard != snap.RequestsServed {
		t.Errorf("per-shard RequestsServed sum %d != aggregate %d", perShard, snap.RequestsServed)
	}
}
