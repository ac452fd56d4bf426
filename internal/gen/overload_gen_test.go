package gen

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/options"
)

// TestOverloadCrosscutWeaving asserts the O9 crosscut follows the
// generation-time weaving rule: a framework generated without overload
// control carries no trace of the gate or the limiter machinery, while
// selecting O9 weaves in the watermark gate, the AIMD limiter layered on
// it and the queue-wait sampling wrapper.
func TestOverloadCrosscutWeaving(t *testing.T) {
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

	plain := all(gen(options.COPSHTTP()))
	for _, absent := range []string{
		"type Overload", "Limiter", "waitSampledEvent",
		"admissionSampleEvery", "New(Config",
	} {
		if strings.Contains(plain, absent) {
			t.Errorf("framework without O9 contains %q — crosscut not woven out", absent)
		}
	}

	base := options.COPSHTTP().WithOverloadControl(20, 5)
	for _, present := range []string{
		"type Overload struct",
		"type Limiter struct",
		"type waitSampledEvent struct",
		"func (l *Limiter) Observe(wait time.Duration)",
		"func (l *Limiter) AcceptAllowed() bool",
		"func (o *Overload) AcceptAllowed() bool",
		"s.gate = New(Config{Inflight: s.activeConns, Backstop: &s.marks})", // no MaxConns bound selected
		"s.fileIO.proc.limiter = s.gate",
		"cfg.MaxLimit = 1024",
	} {
		if !strings.Contains(all(gen(base)), present) {
			t.Errorf("O9 framework missing %q", present)
		}
	}

	// With a connection bound the limiter's ceiling is the bound and the
	// inflight source is the generated activeConns counter.
	bounded := base
	bounded.MaxConnections = 300
	boundedSrc := all(gen(bounded))
	for _, present := range []string{
		"s.gate = New(Config{MaxLimit: 300, Inflight: s.activeConns, Backstop: &s.marks})",
	} {
		if !strings.Contains(boundedSrc, present) {
			t.Errorf("bounded O9 framework missing %q", present)
		}
	}

	// The sampling wrapper must forward priorities when O8 is selected,
	// or the limiter's probe events would jump the scheduling queue.
	sched := all(gen(base.WithScheduling(1, 8)))
	if !strings.Contains(sched, "func (e waitSampledEvent) Priority() Priority") {
		t.Error("O9 + scheduling framework missing the priority forwarder")
	}
}

// TestOverloadFrameworksCompile sweeps the O9 crosscut against the
// options it interacts with (scheduling, sharding, thread pool,
// connection bounds): every woven framework must compile standalone. The
// plain COPS-HTTP one builds in TestPresetFrameworksCompile.
func TestOverloadFrameworksCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix build in -short mode")
	}
	combos := map[string]options.Options{
		"no-pool": func() options.Options {
			o := options.Options{DispatcherThreads: 2, Codec: true}
			return o.WithOverloadControl(20, 5)
		}(),
		"sharded-sched": options.COPSHTTP().WithOverloadControl(20, 5).
			WithScheduling(1, 8).WithShards(4),
		"maxconns": func() options.Options {
			o := options.COPSHTTP().WithOverloadControl(20, 5)
			o.MaxConnections = 300
			return o
		}(),
		"ftp": options.COPSFTP().WithOverloadControl(20, 5),
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

// TestOverloadGenerationIsDeterministic: regenerate-and-diff must keep
// working with the O9 crosscut woven in.
func TestOverloadGenerationIsDeterministic(t *testing.T) {
	o := options.COPSHTTP().WithOverloadControl(20, 5).
		WithScheduling(1, 8).WithShards(2)
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
