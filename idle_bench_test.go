package repro

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/copshttp"
	"repro/internal/options"
)

// raiseNoFile lifts RLIMIT_NOFILE to its hard limit where the process
// is permitted to, so descriptor-bound benchmarks run at the honest
// machine ceiling rather than a conservative soft default. It returns
// the limit actually in force, which callers record as the "nofile"
// metric — a benchmark JSON without the limit that shaped it is not
// reproducible.
func raiseNoFile(b *testing.B) int {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		b.Logf("getrlimit: %v", err)
		return 0
	}
	if rl.Cur < rl.Max {
		raised := rl
		raised.Cur = rl.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised); err == nil {
			rl = raised
		} else {
			b.Logf("setrlimit RLIMIT_NOFILE %d -> %d refused: %v", rl.Cur, rl.Max, err)
		}
	}
	return int(rl.Cur)
}

// BenchmarkIdleParkedConns is the C1M fence for the read path: park as
// many idle keep-alive connections as the process rlimit allows (the
// target is 100k; each loopback connection burns two descriptors, so the
// count clamps to (RLIMIT_NOFILE-headroom)/2 and the honest clamp is
// recorded as the "conns" metric), then measure what an idle connection
// costs. Each one holds its reader goroutine, waiting on the netpoller
// for readability, and no read buffer: the chunk is leased only once the
// socket is readable.
//
// Reported:
//
//	conns       parked keep-alive connections (post-clamp)
//	goroutines  goroutine growth over the empty server: one reader per
//	            conn, and no write pump, since nothing is parked
//	bytes/conn  (HeapInuse+StackInuse) growth per connection, the
//	            in-process client's cost included
//	ns/op       wakeup-to-reply latency: one op sends a request on a
//	            long-idle connection and reads the full response, so the
//	            reader's wakeup is on the measured path
func BenchmarkIdleParkedConns(b *testing.B) {
	target := 100_000
	nofile := raiseNoFile(b)
	if nofile > 0 {
		if lim := (nofile - 512) / 2; lim < target {
			b.Logf("RLIMIT_NOFILE=%d: clamping 100000 idle conns to %d", nofile, lim)
			target = lim
		}
	}
	if target < 1 {
		b.Skip("descriptor limit too low to park connections")
	}

	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte("<html>idle</html>"), 0o644); err != nil {
		b.Fatal(err)
	}
	opts := options.COPSHTTP()
	srv, err := copshttp.New(copshttp.Config{DocRoot: dir, Options: &opts})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	fw := srv.Framework()
	addr := srv.Addr()

	// Empty-server baseline, after a settle GC.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	gBefore := runtime.NumGoroutine()

	conns := make([]net.Conn, 0, target)
	b.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	for i := 0; i < target; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatalf("dial %d/%d: %v", i, target, err)
		}
		conns = append(conns, c)
	}
	// Wait until the server has attached every connection before
	// measuring.
	deadline := time.Now().Add(30 * time.Second)
	for fw.ActiveConns() < target {
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d conns attached", fw.ActiveConns(), target)
		}
		time.Sleep(10 * time.Millisecond)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	resident := int64(after.HeapInuse+after.StackInuse) -
		int64(before.HeapInuse+before.StackInuse)
	goroutines := runtime.NumGoroutine() - gBefore

	// Wakeup-to-reply: each op picks the next long-parked connection,
	// sends one request and reads the whole response. (ResetTimer wipes
	// user metrics, so the idle-cost numbers are reported after the loop.)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := conns[i%len(conns)]
		if _, err := fmt.Fprintf(c, "GET /index.html HTTP/1.1\r\nHost: idle\r\n\r\n"); err != nil {
			b.Fatal(err)
		}
		r := bufio.NewReader(c)
		cl, err := readResponseHead(r)
		if err != nil {
			b.Fatal(err)
		}
		if cl > 0 {
			if _, err := io.CopyN(io.Discard, r, cl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(target), "conns")
	b.ReportMetric(float64(goroutines), "goroutines")
	b.ReportMetric(float64(resident)/float64(target), "bytes/conn")
	b.ReportMetric(float64(nofile), "nofile")
}

// BenchmarkParkedSlowReaders is the write-side companion of the idle
// fence: N slow readers each request a file far larger than the kernel
// can absorb, so every reply parks its residual, a write pump finishes
// it on the netpoller and the worker returns to the pool. The bench then
// measures what the server still costs and still delivers while those
// transfers are in flight:
//
//	conns       slow-reader connections holding an in-flight reply
//	parked      connections with residuals parked on outbound queues —
//	            must equal conns, or the replies are blocking workers
//	goroutines  goroutine growth over the pre-dial server once every
//	            reply is parked: one reader plus at most one write pump
//	            per conn (at most 2*conns), and no pinned worker
//	nofile      the RLIMIT_NOFILE actually in force (post-raise)
//	ns/op       request latency on a separate fast connection, so the
//	            op proves the shards still serve promptly under N
//	            parked transfers
func BenchmarkParkedSlowReaders(b *testing.B) {
	if runtime.GOOS != "linux" {
		b.Skip("replies park only where descriptor-level I/O exists (Linux)")
	}
	nofile := raiseNoFile(b)
	const readers = 32
	const fileSize = 32 << 20

	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte("<html>idle</html>"), 0o644); err != nil {
		b.Fatal(err)
	}
	big := make([]byte, fileSize)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), big, 0o644); err != nil {
		b.Fatal(err)
	}
	opts := options.COPSHTTP()
	opts.LargeFileThreshold = 64 << 10
	srv, err := copshttp.New(copshttp.Config{DocRoot: dir, Options: &opts})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	fw := srv.Framework()
	addr := srv.Addr()

	// Goroutine baseline: the settled server, before any slow reader.
	runtime.GC()
	gBefore := runtime.NumGoroutine()

	conns := make([]net.Conn, 0, readers)
	b.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	for i := 0; i < readers; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		// Clamp the receive window so kernel absorption stays far below
		// the file size and the residual must park server-side.
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(16 << 10)
		}
		if _, err := fmt.Fprintf(c, "GET /big.bin HTTP/1.1\r\nHost: slow\r\n\r\n"); err != nil {
			b.Fatal(err)
		}
		conns = append(conns, c)
	}
	deadline := time.Now().Add(30 * time.Second)
	for fw.ParkedWrites() < readers {
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d replies parked", fw.ParkedWrites(), readers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the workers that parked the replies finish returning to the
	// pool before counting.
	time.Sleep(200 * time.Millisecond)
	goroutines := runtime.NumGoroutine() - gBefore
	parked := fw.ParkedWrites()

	// One trickle drainer keeps every transfer live through the write
	// pumps during the measurement (it is the +1 goroutine the
	// metric above deliberately excludes by sampling first).
	drainDone := make(chan struct{})
	drainStopped := make(chan struct{})
	go func() {
		defer close(drainStopped)
		buf := make([]byte, 8<<10)
		for {
			select {
			case <-drainDone:
				return
			case <-time.After(50 * time.Millisecond):
			}
			for _, c := range conns {
				c.SetReadDeadline(time.Now().Add(time.Millisecond))
				_, _ = c.Read(buf)
			}
		}
	}()
	b.Cleanup(func() { close(drainDone); <-drainStopped })

	ctrl, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ctrl.Close() })
	r := bufio.NewReader(ctrl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmt.Fprintf(ctrl, "GET /index.html HTTP/1.1\r\nHost: ctrl\r\n\r\n"); err != nil {
			b.Fatal(err)
		}
		cl, err := readResponseHead(r)
		if err != nil {
			b.Fatal(err)
		}
		if cl > 0 {
			if _, err := io.CopyN(io.Discard, r, cl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(readers), "conns")
	b.ReportMetric(float64(parked), "parked")
	b.ReportMetric(float64(goroutines), "goroutines")
	b.ReportMetric(float64(nofile), "nofile")
}
