package nserver

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPipelinedBurstKeepsChunkOrder writes more than a megabyte of
// numbered pipelined lines in one burst — dozens of read chunks on one
// connection — and checks every echo comes back in order. With two event
// workers, a read path that let consecutive chunks of one connection run
// on different workers would decode them out of order and reply with
// torn or reordered lines.
func TestPipelinedBurstKeepsChunkOrder(t *testing.T) {
	_, addr := startServer(t, Config{Options: testOptions(), App: echoApp(), Codec: lineCodec{}})
	conn := dial(t, addr)
	r := bufio.NewReaderSize(conn, 64<<10)
	const lines = 16 << 10 // 16k lines of 64 bytes: 1 MiB per burst
	pad := strings.Repeat("p", 64-len("r0-n0000000-")-1)
	for round := 0; round < 4; round++ {
		var burst strings.Builder
		burst.Grow(lines * 64)
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&burst, "r%d-n%07d-%s\n", round, i, pad)
		}
		werr := make(chan error, 1)
		go func() {
			_, err := conn.Write([]byte(burst.String()))
			werr <- err
		}()
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		for i := 0; i < lines; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("round %d reply %d: %v", round, i, err)
			}
			if want := fmt.Sprintf("echo: r%d-n%07d-%s\n", round, i, pad); line != want {
				t.Fatalf("round %d reply %d = %.40q..., want %.40q...", round, i, line, want)
			}
		}
		if err := <-werr; err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
	}
}
