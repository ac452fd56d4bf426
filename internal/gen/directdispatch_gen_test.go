package gen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// TestDirectDispatchCrosscutWeaving asserts the fast path is a rule, not
// an option: every framework with a decoded request to offer (O3) and a
// queue to punt a declined one to (O2 pool) carries the FastPath hook,
// the reader goroutine's wake helper and the punt continuation back to
// the queued path, while a framework missing either leaves no trace of
// the machinery.
func TestDirectDispatchCrosscutWeaving(t *testing.T) {
	all := func(a *Artifact) string {
		var sb strings.Builder
		for _, name := range a.FileNames() {
			sb.Write(a.Files[name])
		}
		return sb.String()
	}
	gen := func(o options.Options) *Artifact {
		t.Helper()
		a, err := Generate("nserver", o)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	markers := []string{
		"FastPath", "c.readable(c.srv.tryFastHandle)",
		"func (c *Communicator) punt(req any) bool", "resumePunted",
		"tryFastHandle", "fastGateClear",
	}

	base := options.COPSHTTP()
	plain := all(gen(base))
	for _, present := range append(markers,
		// The reader goroutine wakes through the helper, and the queued
		// path survives the weave: misses, pipelined backlogs and
		// overload all fall back to it.
		"\t\t\tc.wake()",
		"case readyRead:\n\t\tc.readable(nil)",
		"go c.readLoop()",
	) {
		if !strings.Contains(plain, present) {
			t.Errorf("framework missing %q", present)
		}
	}
	// Without overload control the gate check degenerates to true; with
	// it the fast path must consult the generated gate.
	if strings.Contains(plain, "s.gate.AcceptAllowed()") {
		t.Error("gateless framework consults an overload gate on the fast path")
	}
	gated := all(gen(base.WithOverloadControl(20, 5)))
	if !strings.Contains(gated, "func (s *Server) fastGateClear() bool {\n\treturn s.gate.AcceptAllowed()") {
		t.Error("overload-controlled framework does not gate the fast path on AcceptAllowed")
	}
	// Profiling interaction: the direct-dispatch counter only exists when
	// profiling is selected too.
	if strings.Contains(plain, "DirectDispatched") {
		t.Error("unprofiled framework carries the DirectDispatched counter")
	}
	prof := base
	prof.Profiling = true
	if !strings.Contains(all(gen(prof)), "DirectDispatched atomic.Uint64") {
		t.Error("profiled framework missing the DirectDispatched counter")
	}

	// No codec (nothing decoded to offer the hook) or no worker pool
	// (nowhere to punt a declined request) weaves the fast path out.
	noPool := base
	noPool.SeparateThreadPool = false
	noPool.EventThreads = 0
	noCodec := base
	noCodec.Codec = false
	for name, degraded := range map[string]options.Options{"no-pool": noPool, "no-codec": noCodec} {
		out := all(gen(degraded))
		for _, absent := range markers {
			if strings.Contains(out, absent) {
				t.Errorf("%s framework contains %q", name, absent)
			}
		}
	}
}

// TestDirectDispatchFrameworksCompile sweeps the fast path against the
// options it interacts with (sharding, scheduling,
// overload control, hardening, profiling, logging, debug): every
// woven framework must compile standalone.
func TestDirectDispatchFrameworksCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix build in -short mode")
	}
	base := options.COPSHTTP()
	combos := map[string]options.Options{
		"plain":             base,
		"sharded-sched":     base.WithScheduling(1, 8).WithShards(4),
		"overload-adaptive": base.WithOverloadControl(20, 5),
		"hardened-observed": func() options.Options {
			o := base.WithHardening(5*time.Second, 2*time.Second, 1<<20)
			o.Profiling = true
			o.Logging = true
			o.Mode = options.Debug
			return o.WithShards(2)
		}(),
		"large-files": base.WithLargeFiles(64 << 10),
	}
	for name, o := range combos {
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

// TestDirectDispatchGenerationIsDeterministic: regenerate-and-diff must
// keep working with the fast path woven in.
func TestDirectDispatchGenerationIsDeterministic(t *testing.T) {
	o := options.COPSHTTP().WithScheduling(1, 8).WithShards(4).WithOverloadControl(20, 5)
	a, err := Generate("nserver", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("nserver", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range a.FileNames() {
		if !bytes.Equal(a.Files[name], b.Files[name]) {
			t.Errorf("%s differs between generations", name)
		}
	}
	if fmt.Sprint(a.FileNames()) != fmt.Sprint(b.FileNames()) {
		t.Error("file sets differ between generations")
	}
}

// fastAppSrc is a generated-framework application with a FastPath hook:
// "hot ..." lines are answered inline by the hook, every other line is
// declined to the queued Handle path, which answers "count" with the
// number of inline serves so far and echoes the rest exactly as the hook
// would.
const fastAppSrc = `package main

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"

	"genapp/nserver"
)

var inline atomic.Int64

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

func (hooks) Encode(reply any) ([]byte, error) { return []byte(reply.(string)), nil }

func (hooks) Handle(c *nserver.Communicator, req any) {
	if req == "count" {
		_ = c.Reply(fmt.Sprintf("inline %d\n", inline.Load()))
		return
	}
	_ = c.Reply("echo: " + req.(string) + "\n")
}

func (hooks) OnClose(c *nserver.Communicator, err error) {}

func fast(c *nserver.Communicator, req any) bool {
	line := req.(string)
	if !strings.HasPrefix(line, "hot ") {
		return false
	}
	inline.Add(1)
	_ = c.Reply("echo: " + line + "\n")
	return true
}

func main() {
	srv := nserver.NewServer(hooks{})
	srv.FastPath = fast
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

// TestGeneratedFastPath runs a generated framework's FastPath hook: a
// lone hot line is served inline by the reader goroutine that read it,
// and a pipelined mix of hot lines and declined ones — each decline
// punting the rest of the drain to the queued path — comes back
// byte-exact and in request order.
func TestGeneratedFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	addr := startGenerated(t, options.COPSHTTP(), fastAppSrc)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(conn)
	exchange := func(lines ...string) string {
		t.Helper()
		var req strings.Builder
		for _, l := range lines {
			req.WriteString(l + "\n")
		}
		if _, err := io.WriteString(conn, req.String()); err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for range lines {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("after %q: %v", got.String(), err)
			}
			got.WriteString(line)
		}
		return got.String()
	}
	if got := exchange("hot 0"); got != "echo: hot 0\n" {
		t.Fatalf("lone hot line: %q", got)
	}
	mix := []string{"hot 1", "cold 2", "hot 3", "hot 4", "cold 5", "hot 6", "cold 7"}
	var want strings.Builder
	for _, l := range mix {
		want.WriteString("echo: " + l + "\n")
	}
	for round := 0; round < 20; round++ {
		if got := exchange(mix...); got != want.String() {
			t.Fatalf("round %d: pipelined mix came back\n%q\nwant\n%q", round, got, want.String())
		}
	}
	var n int
	if _, err := fmt.Sscanf(exchange("count"), "inline %d\n", &n); err != nil || n == 0 {
		t.Fatalf("FastPath never served inline (count %d, %v)", n, err)
	}
}
