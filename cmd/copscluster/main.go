// Command copscluster runs the distributed N-Server front end (the
// paper's proposed extension): a connection-level balancer that spreads
// client connections across backend COPS servers.
//
// Usage:
//
//	copscluster -addr :8080 -backends 10.0.0.1:8080,10.0.0.2:8080
//	copscluster -addr :8080 -backends a:80,b:80 -strategy least-connections
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/profiling"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "front-end listen address")
		backends = flag.String("backends", "", "comma-separated backend addresses (required)")
		strategy = flag.String("strategy", "round-robin", "round-robin or least-connections")
		cooldown = flag.Duration("cooldown", time.Second, "base backoff before a failed backend is re-dialed; doubles on each failed re-dial")
		mAddr    = flag.String("metrics-addr", "", "serve Prometheus/JSON metrics on this address (/metrics, /metrics.json); empty disables")
	)
	flag.Parse()
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "copscluster: -backends is required")
		os.Exit(2)
	}
	var strat cluster.Strategy
	switch *strategy {
	case "round-robin":
		strat = cluster.RoundRobin
	case "least-connections":
		strat = cluster.LeastConnections
	default:
		fmt.Fprintf(os.Stderr, "copscluster: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	prof := profiling.NewGroup(1)
	lb, err := cluster.New(cluster.Config{
		Backends: strings.Split(*backends, ","),
		Strategy: strat,
		CoolDown: *cooldown,
		Profile:  prof.Global(),
	})
	if err != nil {
		fatal(err)
	}
	if err := lb.ListenAndServe(*addr); err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s\n", lb, lb.Addr())

	if *mAddr != "" {
		ms, err := metrics.NewServer(*mAddr, metrics.Config{Profile: prof, Cluster: lb})
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	lb.Shutdown()
	fmt.Println("per-backend connections:", lb.Forwarded())
	fmt.Println("profile:", prof.Snapshot())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "copscluster:", err)
	os.Exit(1)
}
