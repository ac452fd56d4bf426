// Command copsftp runs the COPS-FTP server: the paper's event-driven FTP
// server built on the N-Server framework.
//
// Usage:
//
//	copsftp -addr :2121 -root ./export
//	copsftp -addr :2121 -root ./export -user alice:secret -readonly
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/copsftp"
	"repro/internal/ftpproto"
	"repro/internal/metrics"
	"repro/internal/options"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:2121", "control-connection listen address")
		root     = flag.String("root", "", "exported directory (required)")
		users    = flag.String("user", "", "comma-separated user:password pairs")
		noAnon   = flag.Bool("no-anonymous", false, "refuse anonymous logins")
		readOnly = flag.Bool("readonly", false, "refuse uploads and file management")
		idle     = flag.Duration("idle-timeout", 5*time.Minute, "shut down connections idle this long (O7)")
		shards   = flag.Int("shards", 0, "runtime shards (reactor + event pool per shard); 0 = one per CPU, 1 = the paper's single-reactor layout")
		overload = flag.String("overload", "", "overload watermarks 'high,low' (e.g. 20,5): postpone accepts under overload through the admission limiter; empty disables O9")
		profile  = flag.Bool("profile", false, "enable performance profiling (O11)")
		mAddr    = flag.String("metrics-addr", "", "serve Prometheus/JSON metrics on this address (/metrics, /metrics.json); empty disables")
		debug    = flag.Bool("debug", false, "generate in debug mode (O10)")
	)
	flag.Parse()
	if *root == "" {
		fmt.Fprintln(os.Stderr, "copsftp: -root is required")
		os.Exit(2)
	}

	store := ftpproto.NewUserStore(!*noAnon)
	if *users != "" {
		for _, pair := range strings.Split(*users, ",") {
			u, p, ok := strings.Cut(pair, ":")
			if !ok {
				fmt.Fprintf(os.Stderr, "copsftp: bad -user entry %q\n", pair)
				os.Exit(2)
			}
			store.Add(u, p)
		}
	}

	opts := options.COPSFTP()
	opts.IdleTimeout = *idle
	opts.ShutdownLongIdle = *idle > 0
	if *profile || *mAddr != "" {
		opts.Profiling = true
	}
	opts.Shards = *shards
	if *overload != "" {
		var high, low int
		if _, err := fmt.Sscanf(*overload, "%d,%d", &high, &low); err != nil {
			fatal(fmt.Errorf("bad -overload %q", *overload))
		}
		opts = opts.WithOverloadControl(high, low)
	}
	if *debug {
		opts.Mode = options.Debug
	}

	srv, err := copsftp.New(copsftp.Config{
		Root:     *root,
		Options:  &opts,
		Users:    store,
		ReadOnly: *readOnly,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.ListenAndServe(*addr); err != nil {
		fatal(err)
	}
	fmt.Printf("COPS-FTP exporting %s on %s (readonly=%v, shards=%d)\n",
		*root, srv.Addr(), *readOnly, srv.Framework().Shards())

	if *mAddr != "" {
		mcfg := metrics.Config{
			Profile:           srv.Framework().Profile(),
			Cache:             srv.Framework().Cache(),
			Deferred:          srv.Framework().Deferred,
			ParkedWrites:      srv.Framework().ParkedWrites,
			LifecycleBadSteps: srv.Framework().LifecycleBadSteps,
		}
		if l := srv.Framework().Admission(); l != nil {
			mcfg.Admission = l.Snapshot
		}
		ms, err := metrics.NewServer(*mAddr, mcfg)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Shutdown()
	if *debug {
		for _, rec := range srv.Framework().Trace().Snapshot() {
			fmt.Println(rec)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "copsftp:", err)
	os.Exit(1)
}
