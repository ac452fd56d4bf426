package gen

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// ddBase is the COPS-HTTP assignment with the run-to-completion fast
// path (and the kernel-event substrate it requires) selected.
func ddBase() options.Options {
	return options.COPSHTTP().WithEventDriven(true).WithDirectDispatch(true)
}

// TestDirectDispatchCrosscutWeaving asserts the fast-path crosscut
// follows the generation-time weaving rule: a framework generated
// without the option contains no trace of the machinery — including a
// merely event-driven one — while a framework generated with it carries
// the full crosscut: the FastPath hook, the inline poller-goroutine
// drain and the punt continuation back to the queued path.
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
		"FastPath", "c.readable(s.tryFastHandle)",
		"func (c *Communicator) punt(req any) bool", "resumePunted",
		"tryFastHandle", "fastGateClear",
		"func (s *Server) DirectDispatch() bool",
	}

	base := options.COPSHTTP()
	plain := all(gen(base))
	ed := all(gen(base.WithEventDriven(true)))
	for _, absent := range markers {
		if strings.Contains(plain, absent) {
			t.Errorf("plain framework contains %q — crosscut not woven out", absent)
		}
		if strings.Contains(ed, absent) {
			t.Errorf("event-driven framework contains %q without the option", absent)
		}
	}

	dd := all(gen(ddBase()))
	for _, present := range append(markers,
		// The queued path must survive the weave: misses, pipelined
		// backlogs and overload all fall back to it.
		"case readyRead:\n\t\tc.readable(nil)",
		"go c.readLoop()",
	) {
		if !strings.Contains(dd, present) {
			t.Errorf("direct-dispatch framework missing %q", present)
		}
	}
	// Without overload control the gate check degenerates to true; with
	// it the fast path must consult the generated gate.
	if strings.Contains(dd, "s.gate.acceptAllowed()") {
		t.Error("gateless framework consults an overload gate on the fast path")
	}
	gated := all(gen(ddBase().WithOverloadControl(20, 5)))
	if !strings.Contains(gated, "func (s *Server) fastGateClear() bool {\n\treturn s.gate.acceptAllowed()") {
		t.Error("overload-controlled framework does not gate the fast path on acceptAllowed")
	}
	// Profiling interaction: the direct-dispatch counter only exists when
	// both crosscuts are selected.
	if strings.Contains(dd, "DirectDispatched") {
		t.Error("unprofiled framework carries the DirectDispatched counter")
	}
	prof := ddBase()
	prof.Profiling = true
	if !strings.Contains(all(gen(prof)), "DirectDispatched atomic.Uint64") {
		t.Error("profiled direct-dispatch framework missing the DirectDispatched counter")
	}

	// Generation-time degradation mirrors the library's runtime rule: no
	// codec (nothing decoded to offer the hook) or no worker pool
	// (nowhere to punt a declined request) weaves the crosscut out even
	// though Validate accepts the assignment.
	noPool := ddBase()
	noPool.SeparateThreadPool = false
	noPool.EventThreads = 0
	for _, degraded := range []options.Options{noPool} {
		out := all(gen(degraded))
		for _, absent := range markers {
			if strings.Contains(out, absent) {
				t.Errorf("degraded assignment contains %q", absent)
			}
		}
	}

	// Deselecting the option is byte-identical to never selecting it.
	offArt := gen(ddBase().WithDirectDispatch(false))
	edArt := gen(base.WithEventDriven(true))
	if fmt.Sprint(offArt.FileNames()) != fmt.Sprint(edArt.FileNames()) {
		t.Fatal("DirectDispatch=false changes the emitted file set")
	}
	for _, name := range edArt.FileNames() {
		if !bytes.Equal(offArt.Files[name], edArt.Files[name]) {
			t.Errorf("%s: DirectDispatch=false output differs from never-selected output", name)
		}
	}
}

// TestDirectDispatchFrameworksCompile sweeps the crosscut against the
// options it interacts with (sharding, scheduling, overload + adaptive
// shed, hardening, profiling, logging, debug): every woven framework
// must compile standalone.
func TestDirectDispatchFrameworksCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix build in -short mode")
	}
	combos := map[string]options.Options{
		"plain": ddBase(),
		"sharded-sched": ddBase().WithScheduling(1, 8).
			WithShards(4),
		"overload-adaptive": ddBase().WithOverloadControl(20, 5).
			WithAdaptiveShed(true),
		"hardened-observed": func() options.Options {
			o := ddBase().WithHardening(5*time.Second, 2*time.Second, 1<<20)
			o.Profiling = true
			o.Logging = true
			o.Mode = options.Debug
			return o.WithShards(2)
		}(),
		"large-files": ddBase().WithLargeFiles(64 << 10),
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
// keep working with the fast-path crosscut woven in.
func TestDirectDispatchGenerationIsDeterministic(t *testing.T) {
	o := ddBase().WithScheduling(1, 8).WithShards(4).WithOverloadControl(20, 5)
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
