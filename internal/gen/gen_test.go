package gen

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// buildDir runs "go build ./..." in dir and fails the test on error.
func buildDir(t *testing.T, dir string) {
	t.Helper()
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build in %s failed: %v\n%s", dir, err, out)
	}
}

func TestGenerateRejectsInvalidOptions(t *testing.T) {
	if _, err := Generate("x", options.Options{}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestGenerateDefaultsPackageName(t *testing.T) {
	a, err := Generate("", options.COPSHTTP())
	if err != nil {
		t.Fatal(err)
	}
	if a.Package != "nserver" {
		t.Errorf("package = %q", a.Package)
	}
}

func TestPresetFrameworksCompile(t *testing.T) {
	for name, o := range map[string]options.Options{
		"copshttp": options.COPSHTTP(),
		"copsftp":  options.COPSFTP(),
		"sched":    options.COPSHTTP().WithScheduling(1, 8),
		"overload": options.COPSHTTP().WithOverloadControl(20, 5),
		"hardened": options.COPSHTTP().WithHardening(5*time.Second, 2*time.Second, 1<<20),
		"hardened-nocodec": func() options.Options {
			o := options.Options{DispatcherThreads: 1}
			return o.WithHardening(time.Second, time.Second, 4096)
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			a, err := Generate("nserver", o)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), name)
			if err := a.WriteTo(dir); err != nil {
				t.Fatal(err)
			}
			buildDir(t, dir)
		})
	}
}

// TestOptionMatrixCompiles sweeps a representative slice of the option
// space: the generated code must compile for every legal combination it
// covers (the crosscut cells interact, so pairwise coverage matters).
func TestOptionMatrixCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix build in -short mode")
	}
	var combos []options.Options
	for _, pool := range []bool{false, true} {
		for _, async := range []bool{false, true} {
			for _, sched := range []bool{false, true} {
				o := options.Options{
					DispatcherThreads: 2,
					Codec:             !sched, // vary codec along the way
					Mode:              options.Debug,
					Profiling:         async,
					Logging:           sched,
				}
				if pool {
					o.SeparateThreadPool = true
					o.EventThreads = 2
				}
				if async {
					o.Completion = options.AsynchronousCompletion
				}
				if sched {
					o.EventScheduling = true
					o.Quotas = []int{4, 1}
				}
				combos = append(combos, o)
			}
		}
	}
	// Every cache policy, plus dynamic allocation, idle shutdown and the
	// trivial connection bound.
	for _, policy := range []options.CachePolicy{
		options.LRU, options.LFU, options.LRUMin,
		options.LRUThreshold, options.HyperG, options.CustomPolicy,
	} {
		o := options.COPSHTTP()
		o.Cache = policy
		o.CacheThreshold = 64 << 10
		o.Allocation = options.DynamicAllocation
		o.MinEventThreads = 1
		o.MaxEventThreads = 4
		o.ShutdownLongIdle = true
		o.IdleTimeout = time.Minute
		o.MaxConnections = 100
		combos = append(combos, o)
	}
	for i, o := range combos {
		a, err := Generate("nserver", o)
		if err != nil {
			t.Fatalf("combo %d (%+v): %v", i, o, err)
		}
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("combo%d", i))
		if err := a.WriteTo(dir); err != nil {
			t.Fatal(err)
		}
		buildDir(t, dir)
	}
	t.Logf("compiled %d option combinations", len(combos))
}

// TestGenerationTimeWeaving asserts the paper's core claim: unselected
// features leave no trace in the generated source, selected features are
// present (Table 2's Exists and Depends cells).
func TestGenerationTimeWeaving(t *testing.T) {
	all := func(a *Artifact) string {
		var sb strings.Builder
		for _, name := range a.FileNames() {
			sb.Write(a.Files[name])
		}
		return sb.String()
	}

	base := options.Options{DispatcherThreads: 1, Codec: true}
	minimal, err := Generate("nserver", base)
	if err != nil {
		t.Fatal(err)
	}
	minSrc := all(minimal)
	for _, absent := range []string{
		"CompletionEvent", "Token", "Cache", "overloadGate",
		"Profile", "Priority", "quota", "idleTimeout", "trace(",
		"ProcessorController", "controller", "log.Logger", "setNotSentLowat",
	} {
		if strings.Contains(minSrc, absent) {
			t.Errorf("minimal framework contains %q — feature not woven out", absent)
		}
	}
	if _, ok := minimal.Files["cache.go"]; ok {
		t.Error("cache.go generated without O6")
	}
	if _, ok := minimal.Files["lowat_linux.go"]; ok {
		t.Error("lowat_linux.go generated without a write bound")
	}
	if !strings.Contains(minSrc, "Decode") || !strings.Contains(minSrc, "Encode") {
		t.Error("codec hooks missing with O3 = Yes")
	}

	full := options.COPSHTTP().WithScheduling(1, 8).WithOverloadControl(20, 5)
	full.ShutdownLongIdle = true
	full.IdleTimeout = time.Minute
	full.Profiling = true
	full.Logging = true
	full.Mode = options.Debug
	full.MaxConnections = 500
	rich, err := Generate("nserver", full)
	if err != nil {
		t.Fatal(err)
	}
	richSrc := all(rich)
	for _, present := range []string{
		"CompletionEvent", "Token", "overloadGate", "Profile",
		"Priority()", "quotas", "idleTimeout", "trace(", "log.Logger",
		"NewCache", "setNotSentLowat(conn)",
	} {
		if !strings.Contains(richSrc, present) {
			t.Errorf("full framework missing %q", present)
		}
	}
	// The generated watermarks and quotas are literals, not config reads.
	if !strings.Contains(richSrc, "20") || !strings.Contains(richSrc, ">= 20") {
		t.Error("high watermark not baked in as a literal")
	}
	if !strings.Contains(richSrc, "int{1, 8}") && !strings.Contains(richSrc, "{1, 8}") {
		t.Error("quotas not baked in as literals")
	}

	noCodec := base
	noCodec.Codec = false
	fig2, err := Generate("nserver", noCodec)
	if err != nil {
		t.Fatal(err)
	}
	src2 := all(fig2)
	if strings.Contains(src2, "Decode") || strings.Contains(src2, "Reply(") {
		t.Error("codec steps present despite O3 = No (Fig. 2 variation)")
	}
}

func TestHardeningCrosscutWeaving(t *testing.T) {
	all := func(a *Artifact) string {
		var sb strings.Builder
		for _, name := range a.FileNames() {
			sb.Write(a.Files[name])
		}
		return sb.String()
	}

	base := options.Options{DispatcherThreads: 1, Codec: true}
	plain, err := Generate("nserver", base)
	if err != nil {
		t.Fatal(err)
	}
	plainSrc := all(plain)
	for _, absent := range []string{
		"readTimeout", "writeTimeout", "maxRequestBytes",
		"SetReadDeadline", "SetWriteDeadline",
	} {
		if strings.Contains(plainSrc, absent) {
			t.Errorf("unhardened framework contains %q — crosscut not woven out", absent)
		}
	}

	hard, err := Generate("nserver",
		base.WithHardening(5*time.Second, 2*time.Second, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	hardSrc := all(hard)
	for _, present := range []string{
		"SetReadDeadline(time.Unix(0, c.readDeadline(armed)))",
		"SetWriteDeadline(time.Now().Add(writeTimeout))",
		"maxRequestBytes = 1048576",
		"errRequestTooLarge",
	} {
		if !strings.Contains(hardSrc, present) {
			t.Errorf("hardened framework missing %q", present)
		}
	}
	// Timeouts are baked in as literal nanosecond constants.
	if !strings.Contains(hardSrc, "time.Duration(5000000000)") {
		t.Error("read timeout not baked in as a literal")
	}
}

// TestObservabilityCrosscutWeaving asserts the observability crosscuts
// follow the generation-time weaving rule: the O11 stage histograms and
// the O12 request-trace IDs appear exactly when their options are
// selected, and the codec stage slots exist only with O3.
func TestObservabilityCrosscutWeaving(t *testing.T) {
	all := func(a *Artifact) string {
		var sb strings.Builder
		for _, name := range a.FileNames() {
			sb.Write(a.Files[name])
		}
		return sb.String()
	}
	gen := func(o options.Options) string {
		t.Helper()
		a, err := Generate("nserver", o)
		if err != nil {
			t.Fatal(err)
		}
		return all(a)
	}

	base := options.Options{DispatcherThreads: 1, Codec: true}

	// Neither O11 nor O12: no histograms, no trace IDs, not even a time
	// import for them.
	plain := gen(base)
	for _, absent := range []string{
		"StageHistogram", "StageReport", "stageRead", "Observe(",
		"RequestID", "connSeq", "traceSampleEvery", "trace id=",
	} {
		if strings.Contains(plain, absent) {
			t.Errorf("plain framework contains %q — observability not woven out", absent)
		}
	}

	// O11 only: per-stage histograms for all five pipeline stages, but no
	// request tracing.
	prof := base
	prof.Profiling = true
	profSrc := gen(prof)
	for _, present := range []string{
		"StageHistogram", "StageReport",
		"Stages[stageRead].Observe", "Stages[stageDecode].Observe",
		"Stages[stageHandle].Observe", "Stages[stageEncode].Observe",
		"Stages[stageSend].Observe",
	} {
		if !strings.Contains(profSrc, present) {
			t.Errorf("profiled framework missing %q", present)
		}
	}
	for _, absent := range []string{"RequestID", "trace id=", "traceSampleEvery"} {
		if strings.Contains(profSrc, absent) {
			t.Errorf("profiled framework contains O12 artifact %q", absent)
		}
	}

	// O12 only: trace IDs and sampled trace lines, but no histograms.
	logd := base
	logd.Logging = true
	logSrc := gen(logd)
	for _, present := range []string{
		"RequestID", "connSeq", "traceSampleEvery = 128", "trace id=",
		"c%d-r%d",
	} {
		if !strings.Contains(logSrc, present) {
			t.Errorf("logging framework missing %q", present)
		}
	}
	for _, absent := range []string{"StageHistogram", "Profile"} {
		if strings.Contains(logSrc, absent) {
			t.Errorf("logging framework contains O11 artifact %q", absent)
		}
	}

	// O11 without O3: the codec stage slots themselves are woven out.
	noCodec := options.Options{DispatcherThreads: 1, Profiling: true}
	ncSrc := gen(noCodec)
	for _, absent := range []string{"stageDecode", "stageEncode"} {
		if strings.Contains(ncSrc, absent) {
			t.Errorf("codec-less framework contains %q", absent)
		}
	}
	for _, present := range []string{"Stages[stageRead].Observe", "Stages[stageSend].Observe"} {
		if !strings.Contains(ncSrc, present) {
			t.Errorf("codec-less profiled framework missing %q", present)
		}
	}

	// Both on: the sampled trace line and the handle-stage observation
	// share the generated handleStart timestamp, and the code compiles.
	both := base
	both.Profiling = true
	both.Logging = true
	a, err := Generate("nserver", both)
	if err != nil {
		t.Fatal(err)
	}
	bothSrc := all(a)
	for _, present := range []string{
		"handleStart := time.Now()",
		"Stages[stageHandle].Observe(time.Since(handleStart))",
		"s.Log.Printf(\"trace id=%s service=%v\", c.RequestID(), time.Since(handleStart))",
	} {
		if !strings.Contains(bothSrc, present) {
			t.Errorf("combined framework missing %q", present)
		}
	}
	dir := filepath.Join(t.TempDir(), "o11o12")
	if err := a.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	buildDir(t, dir)
}

func TestPolicySpecializedCacheCode(t *testing.T) {
	for policy, marker := range map[options.CachePolicy]string{
		options.LRU:          "least recently used",
		options.LFU:          "least frequently used",
		options.LRUMin:       "LRU-MIN",
		options.HyperG:       "Hyper-G",
		options.CustomPolicy: "CustomVictim",
	} {
		o := options.COPSHTTP()
		o.Cache = policy
		o.CacheThreshold = 1 << 20
		a, err := Generate("nserver", o)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		src := string(a.Files["cache.go"])
		if !strings.Contains(src, marker) {
			t.Errorf("policy %v: marker %q missing", policy, marker)
		}
		// Only the selected policy's victim code is generated: LRU code
		// must not carry frequency bookkeeping.
		if policy == options.LRU && strings.Contains(src, "freq") {
			t.Error("LRU cache carries frequency fields")
		}
	}
}

func TestGeneratedDocHeaderListsOptions(t *testing.T) {
	a, err := Generate("myserver", options.COPSFTP())
	if err != nil {
		t.Fatal(err)
	}
	doc := string(a.Files["doc.go"])
	for _, want := range []string{
		"package myserver", "O1", "O12", "Synchronous", "Dynamic",
		"DO NOT EDIT",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc.go missing %q", want)
		}
	}
}

// TestGeneratedServerRuns generates a framework, writes an application
// main with hook methods (the only code a user writes), builds it and
// talks to the running server over TCP — the full zero-to-working-server
// path of the pattern.
func TestGeneratedServerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	o := options.COPSHTTP().WithScheduling(1, 4)
	o.Profiling = true
	mainSrc := `package main

import (
	"fmt"
	"net"
	"os"

	"genapp/nserver"
)

type hooks struct{}

func (hooks) OnConnect(c *nserver.Communicator) { c.SetPriority(1) }

func (hooks) Decode(buf []byte) (any, int, error) {
	for i, b := range buf {
		if b == '\n' {
			return string(buf[:i]), i + 1, nil
		}
	}
	return nil, 0, nil
}

func (hooks) Encode(reply any) ([]byte, error) {
	return []byte(reply.(string) + "\n"), nil
}

func (hooks) Handle(c *nserver.Communicator, req any) {
	_ = c.Reply("echo: " + req.(string))
}

func (hooks) OnClose(c *nserver.Communicator, err error) {}

func main() {
	srv := nserver.NewServer(hooks{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr().String())
	srv.Serve(ln)
	select {}
}
`
	addr := startGenerated(t, o, mainSrc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		fmt.Fprintf(conn, "ping %d\n", i)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo: ping %d\n", i); line != want {
			t.Fatalf("got %q want %q", line, want)
		}
	}

	// A line longer than one 32 KiB read chunk, then a pipelined burst
	// spanning dozens of chunks, all in one write: with 4 event threads
	// every echo must still come back byte-exact and in order.
	big := strings.Repeat("x", 100<<10)
	const lines = 16 << 10
	pad := strings.Repeat("p", 48)
	var burst strings.Builder
	fmt.Fprintf(&burst, "%s\n", big)
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&burst, "line %06d %s\n", i, pad)
	}
	werr := make(chan error, 1)
	go func() {
		_, err := conn.Write([]byte(burst.String()))
		werr <- err
	}()
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("large line: %v", err)
	}
	if line != "echo: "+big+"\n" {
		t.Fatalf("large line echoed corrupted (%d bytes back)", len(line))
	}
	for i := 0; i < lines; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("burst reply %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo: line %06d %s\n", i, pad); line != want {
			t.Fatalf("burst reply %d = %q, want %q", i, line, want)
		}
	}
	if err := <-werr; err != nil {
		t.Fatalf("burst write: %v", err)
	}
}

// TestGeneratedRequestCapAllowsPipelinedBurst: the generated
// maxRequestBytes check caps one request, not one read. A single write of
// 150 small pipelined lines, far over the 4096-byte cap in total, is
// answered in full, while one line that alone outgrows the cap tears the
// connection down.
func TestGeneratedRequestCapAllowsPipelinedBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	o := options.COPSHTTP().WithHardening(0, 0, 4096)
	mainSrc := `package main

import (
	"fmt"
	"net"
	"os"

	"genapp/nserver"
)

type hooks struct{}

func (hooks) OnConnect(c *nserver.Communicator) {}

func (hooks) Decode(buf []byte) (any, int, error) {
	for i, b := range buf {
		if b == '\n' {
			return string(buf[:i]), i + 1, nil
		}
	}
	return nil, 0, nil
}

func (hooks) Encode(reply any) ([]byte, error) { return []byte(reply.(string) + "\n"), nil }

func (hooks) Handle(c *nserver.Communicator, req any) { _ = c.Reply("echo: " + req.(string)) }

func (hooks) OnClose(c *nserver.Communicator, err error) {}

func main() {
	srv := nserver.NewServer(hooks{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr().String())
	srv.Serve(ln)
	select {}
}
`
	addr := startGenerated(t, o, mainSrc)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	const n = 150
	var burst strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "request %03d padded to thirty-six\n", i)
	}
	if _, err := conn.Write([]byte(burst.String())); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d of a %d-byte burst: %v", i, burst.Len(), err)
		}
		if want := fmt.Sprintf("echo: request %03d padded to thirty-six\n", i); line != want {
			t.Fatalf("reply %d = %q, want %q", i, line, want)
		}
	}

	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := over.Write([]byte(strings.Repeat("x", 8192))); err != nil {
		t.Fatal(err)
	}
	if b, err := bufio.NewReader(over).ReadByte(); err != io.EOF {
		t.Fatalf("oversized request: got byte %q, err %v; want the connection closed", b, err)
	}
}

// startGenerated generates a framework with o, builds it together with
// the application main mainSrc, starts the binary with args and returns
// the address it reports on its first stdout line. The process is killed
// when the test ends.
func startGenerated(t *testing.T, o options.Options, mainSrc string, args ...string) string {
	t.Helper()
	a, err := Generate("nserver", o)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	pkgDir := filepath.Join(root, "nserver")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range a.Files {
		if err := os.WriteFile(filepath.Join(pkgDir, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"),
		[]byte("module genapp\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "main.go"), []byte(mainSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(root, "genapp")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = root
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	srv := exec.Command(bin, args...)
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Process.Kill()
		srv.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			addrCh <- sc.Text()
		}
	}()
	select {
	case addr := <-addrCh:
		return addr
	case <-time.After(10 * time.Second):
		t.Fatal("generated server never reported its address")
	}
	return ""
}

func TestCountSource(t *testing.T) {
	src := []byte(`// Package demo has comments.
package demo

/* block
   comment */
type A struct{} // trailing comment

type B int

func (A) M1() {}

func F() {
	// only a comment
	x := "quoted // not a comment"
	_ = x
}
`)
	st := CountSource("demo.go", src)
	if st.Classes != 2 {
		t.Errorf("classes = %d", st.Classes)
	}
	if st.Methods != 2 {
		t.Errorf("methods = %d", st.Methods)
	}
	// NCSS: package, type A, type B, func M1, func F, x := ..., _ = x,
	// two closing braces... count expected lines explicitly:
	// "package demo", "type A struct{}", "type B int", "func (A) M1() {}",
	// "func F() {", `x := "quoted // not a comment"`, "_ = x", "}"
	if st.NCSS != 8 {
		t.Errorf("NCSS = %d, want 8", st.NCSS)
	}
}

func TestCountSourceUnparsable(t *testing.T) {
	st := CountSource("bad.go", []byte("this is not go\n// comment\ncode line\n"))
	if st.Classes != 0 || st.Methods != 0 {
		t.Errorf("unparsable decls: %+v", st)
	}
	if st.NCSS != 2 {
		t.Errorf("unparsable NCSS = %d", st.NCSS)
	}
}

func TestCountDir(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "a.go"), []byte("package a\n\ntype T int\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "a_test.go"), []byte("package a\n\nfunc TestX() {}\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "note.txt"), []byte("not go"), 0o644)
	st, err := CountDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Classes != 1 || st.Methods != 0 || st.NCSS != 2 {
		t.Errorf("stats = %+v (test files must be excluded)", st)
	}
	if _, err := CountDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestStatsAreSubstantial(t *testing.T) {
	a, err := Generate("nserver", options.COPSHTTP())
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Classes < 8 || st.Methods < 30 || st.NCSS < 300 {
		t.Errorf("generated framework suspiciously small: %+v", st)
	}
	// Richer option sets generate strictly more code (the generative
	// scaling property).
	full := options.COPSHTTP().WithScheduling(1, 8).WithOverloadControl(20, 5)
	full.Profiling = true
	full.Logging = true
	full.Mode = options.Debug
	b, err := Generate("nserver", full)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats().NCSS <= st.NCSS {
		t.Errorf("full options NCSS %d not above base %d", b.Stats().NCSS, st.NCSS)
	}
	minimal, err := Generate("nserver", options.Options{DispatcherThreads: 1, Codec: true})
	if err != nil {
		t.Fatal(err)
	}
	if minimal.Stats().NCSS >= st.NCSS {
		t.Errorf("minimal NCSS %d not below preset %d", minimal.Stats().NCSS, st.NCSS)
	}
}
