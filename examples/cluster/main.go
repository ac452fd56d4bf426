// Cluster: the paper's future-work extension, live — a distributed
// N-Server serving from several "workstations" (here: three COPS-HTTP
// backends in one process) behind a connection-level balancer. The hook
// methods are identical to the single-machine server's; only the
// deployment changes.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/copshttp"
	"repro/internal/options"
	"repro/internal/profiling"
)

func main() {
	backends := flag.Int("backends", 3, "number of backend COPS-HTTP servers")
	demo := flag.Bool("demo", true, "run self-test requests and exit")
	flag.Parse()

	root, err := os.MkdirTemp("", "cluster-site")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(root)
	if err := os.WriteFile(filepath.Join(root, "index.html"),
		[]byte("<html>served by the N-Server cluster</html>"), 0o644); err != nil {
		fail(err)
	}

	// The workstations: identical COPS-HTTP instances.
	addrs := make([]string, 0, *backends)
	for i := 0; i < *backends; i++ {
		opts := options.COPSHTTP()
		srv, err := copshttp.New(copshttp.Config{DocRoot: root, Options: &opts})
		if err != nil {
			fail(err)
		}
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			fail(err)
		}
		defer srv.Shutdown()
		addrs = append(addrs, srv.Addr())
		fmt.Printf("backend %d on %s\n", i, srv.Addr())
	}

	prof := profiling.NewGroup(1)
	lb, err := cluster.New(cluster.Config{
		Backends: addrs,
		Strategy: cluster.RoundRobin,
		Profile:  prof.Global(),
	})
	if err != nil {
		fail(err)
	}
	if err := lb.ListenAndServe("127.0.0.1:0"); err != nil {
		fail(err)
	}
	defer lb.Shutdown()
	fmt.Printf("%s on %s\n", lb, lb.Addr())

	if !*demo {
		select {}
	}
	for i := 0; i < 2**backends; i++ {
		if err := fetch(lb.Addr().String()); err != nil {
			fail(err)
		}
	}
	fmt.Println("per-backend connections:", lb.Forwarded())
	fmt.Println("front-end profile:", prof.Snapshot())
	fmt.Println("demo OK")
}

// fetch issues one request through the balancer.
func fetch(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "GET / HTTP/1.0\r\n\r\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.Contains(line, "200") {
		return fmt.Errorf("unexpected status %q", line)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cluster:", err)
	os.Exit(1)
}
