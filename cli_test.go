package repro

// End-to-end tests of the command-line tools: the binaries are built once
// and driven the way a user would drive them, including a live
// copshttp + loadgen run over TCP.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildCLIs compiles every cmd/ binary once per test run.
func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI builds in -short mode")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "repro-bin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("build cmds: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func run(t *testing.T, timeout time.Duration, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		cmd.Process.Kill()
		t.Fatalf("%s %v timed out", filepath.Base(bin), args)
	}
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLINsgenDryRunAndStats(t *testing.T) {
	bins := buildCLIs(t)
	out := run(t, 30*time.Second, filepath.Join(bins, "nsgen"), "-preset", "copshttp", "-stats")
	for _, want := range []string{"framework.go", "cache.go", "NCSS", "total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("nsgen output missing %q:\n%s", want, out)
		}
	}
}

func TestCLINsgenConfigRoundTrip(t *testing.T) {
	bins := buildCLIs(t)
	nsgen := filepath.Join(bins, "nsgen")
	cfg := run(t, 30*time.Second, nsgen, "-emit-config", "copsftp")
	cfgPath := filepath.Join(t.TempDir(), "opts.json")
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(t.TempDir(), "gen")
	out := run(t, 30*time.Second, nsgen, "-config", cfgPath, "-pkg", "ftpsrv", "-out", outDir)
	if !strings.Contains(out, "generated package ftpsrv") {
		t.Errorf("nsgen -config output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(outDir, "framework.go")); err != nil {
		t.Error("generated framework missing on disk")
	}
	// The generated module must build.
	build := exec.Command("go", "build", "./...")
	build.Dir = outDir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("generated module build: %v\n%s", err, out)
	}
}

func TestCLIExperimentsTables(t *testing.T) {
	bins := buildCLIs(t)
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	out := run(t, 60*time.Second, filepath.Join(bins, "experiments"),
		"-table1", "-table2", "-table3", "-table4", "-repo", repoRoot)
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Reactor", "2697"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments output missing %q", want)
		}
	}
}

func TestCLIExperimentsQuickFigure(t *testing.T) {
	bins := buildCLIs(t)
	out := run(t, 120*time.Second, filepath.Join(bins, "experiments"),
		"-fig6", "-duration", "5s", "-warmup", "1s")
	if !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "resp(ctl)") {
		t.Errorf("fig6 output:\n%s", out)
	}
}

func TestCLIServeAndLoad(t *testing.T) {
	bins := buildCLIs(t)
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "index.html"), []byte("cli-test"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := exec.Command(filepath.Join(bins, "copshttp"),
		"-addr", "127.0.0.1:0", "-root", root, "-profile", "-metrics-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		srv.Wait()
	}()
	// The server prints "COPS-HTTP serving <root> on <addr> ...", then
	// "metrics on http://<addr>/metrics".
	addrCh, metricsCh := make(chan string, 1), make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on "); i >= 0 && strings.HasPrefix(line, "COPS-HTTP") {
				fields := strings.Fields(line[i+4:])
				if len(fields) > 0 {
					addrCh <- fields[0]
				}
			}
			if a, ok := metricsAddr(line); ok {
				metricsCh <- a
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(15 * time.Second):
		t.Fatal("copshttp never reported its address")
	}
	maddr := awaitMetricsAddr(t, metricsCh)

	// Is it really serving?
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(conn, "GET / HTTP/1.0\r\n\r\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil || !strings.Contains(line, "200") {
		t.Fatalf("direct request: %q %v", line, err)
	}

	// Drive it with loadgen.
	out := run(t, 60*time.Second, filepath.Join(bins, "loadgen"),
		"-addr", addr, "-clients", "8", "-duration", "2s")
	if !strings.Contains(out, "throughput:") || !strings.Contains(out, "fairness") {
		t.Errorf("loadgen output:\n%s", out)
	}
	if strings.Contains(out, "responses=0\n") {
		t.Errorf("loadgen served nothing:\n%s", out)
	}
	checkNoBadSteps(t, maddr, "nserver_requests_total")
}

// awaitMetricsAddr waits for the metrics address a server printed.
func awaitMetricsAddr(t *testing.T, ch <-chan string) string {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(15 * time.Second):
		t.Fatal("server never reported its metrics address")
		return ""
	}
}

// metricsAddr returns the address in a server's "metrics on
// http://<addr>/metrics" line.
func metricsAddr(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "metrics on http://")
	if !ok {
		return "", false
	}
	addr, _, ok := strings.Cut(rest, "/")
	return addr, ok
}

// checkNoBadSteps scrapes a live server's /metrics after it served
// traffic (the served counter must be positive) and requires the
// lifecycle bad-step counter to be exported and to read 0.
func checkNoBadSteps(t *testing.T, maddr, served string) {
	t.Helper()
	raw, err := httpGet(t, maddr, "/metrics", 5*time.Second)
	if err != nil {
		t.Fatalf("scrape %s: %v", maddr, err)
	}
	_, body, _ := strings.Cut(string(raw), "\r\n\r\n")
	counters := metrics.ParseCounters(body)
	if counters[served] <= 0 {
		t.Errorf("%s = %v after served traffic", served, counters[served])
	}
	if bad, ok := counters["nserver_lifecycle_bad_steps_total"]; !ok || bad != 0 {
		t.Errorf("nserver_lifecycle_bad_steps_total = %v (exported %v), want 0", bad, ok)
	}
}

func TestCLICopsftpSmoke(t *testing.T) {
	bins := buildCLIs(t)
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := exec.Command(filepath.Join(bins, "copsftp"), "-addr", "127.0.0.1:0", "-root", root,
		"-profile", "-metrics-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		srv.Wait()
	}()
	addrCh, metricsCh := make(chan string, 1), make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := metricsAddr(line); ok {
				metricsCh <- a
				return
			}
			if i := strings.Index(line, " on "); i >= 0 {
				fields := strings.Fields(line[i+4:])
				if len(fields) > 0 {
					addrCh <- fields[0]
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(15 * time.Second):
		t.Fatal("copsftp never reported its address")
	}
	maddr := awaitMetricsAddr(t, metricsCh)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "220") {
		t.Fatalf("greeting: %q %v", line, err)
	}
	fmt.Fprint(conn, "QUIT\r\n")
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "221") {
		t.Fatalf("quit: %q %v", line, err)
	}
	checkNoBadSteps(t, maddr, "nserver_connections_accepted_total")
}

func TestCLIScaffoldBuildsAndRuns(t *testing.T) {
	bins := buildCLIs(t)
	dir := t.TempDir()
	run(t, 30*time.Second, filepath.Join(bins, "nsgen"),
		"-preset", "copsftp", "-scaffold", "-module", "scaffapp", "-out", dir)
	build := exec.Command("go", "build", "-o", "scaffapp", ".")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("scaffold build: %v\n%s", err, out)
	}
}

func TestCLICopsclusterForwards(t *testing.T) {
	bins := buildCLIs(t)
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "index.html"), []byte("via-cluster"), 0o644); err != nil {
		t.Fatal(err)
	}
	// One backend copshttp.
	backend := exec.Command(filepath.Join(bins, "copshttp"), "-addr", "127.0.0.1:0", "-root", root)
	bout, err := backend.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { backend.Process.Signal(os.Interrupt); backend.Wait() }()
	backendAddr := scanAddr(t, bout, "COPS-HTTP")

	front := exec.Command(filepath.Join(bins, "copscluster"),
		"-addr", "127.0.0.1:0", "-backends", backendAddr)
	fout, err := front.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { front.Process.Signal(os.Interrupt); front.Wait() }()
	frontAddr := scanAddr(t, fout, "cluster balancer")

	conn, err := net.DialTimeout("tcp", frontAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "GET / HTTP/1.0\r\n\r\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, "200") {
		t.Fatalf("through-cluster request: %q %v", line, err)
	}
}

// scanAddr extracts the listen address from a server's startup line
// ("<prefix> ... on <addr>" or "<prefix> ... on <addr> (...)").
func scanAddr(t *testing.T, out interface{ Read([]byte) (int, error) }, prefix string) string {
	t.Helper()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			if i := strings.LastIndex(line, " on "); i >= 0 {
				fields := strings.Fields(line[i+4:])
				if len(fields) > 0 {
					addrCh <- fields[0]
					return
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr
	case <-time.After(15 * time.Second):
		t.Fatalf("%s never reported its address", prefix)
		return ""
	}
}
