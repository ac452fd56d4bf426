package gen

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/options"
)

// TestAdaptiveShedCrosscutWeaving asserts the adaptive admission
// crosscut follows the generation-time weaving rule: a framework
// generated with plain O9 watermarks carries no trace of the limiter
// machinery, while selecting the adaptive extension weaves in the AIMD
// limiter, the queue-wait sampling wrapper and the gate integration.
func TestAdaptiveShedCrosscutWeaving(t *testing.T) {
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

	base := options.COPSHTTP().WithOverloadControl(20, 5)
	plain := all(gen(base))
	for _, absent := range []string{
		"admissionLimiter", "waitSampledEvent", "acceptAllowed(g.inflight",
		"admissionSampleEvery", "newAdmissionLimiter",
	} {
		if strings.Contains(plain, absent) {
			t.Errorf("watermark-only framework contains %q — crosscut not woven out", absent)
		}
	}

	adaptive := all(gen(base.WithAdaptiveShed(true)))
	for _, present := range []string{
		"type admissionLimiter struct",
		"type waitSampledEvent struct",
		"func (l *admissionLimiter) observe(wait time.Duration)",
		"func (l *admissionLimiter) acceptAllowed(inflight int) bool",
		"return g.limiter.acceptAllowed(g.inflight())",
		"s.gate.limiter = newAdmissionLimiter()",
		"s.fileIO.proc.limiter = s.gate.limiter",
		"admissionMaxLimit    = 1024", // no MaxConns bound selected
	} {
		if !strings.Contains(adaptive, present) {
			t.Errorf("adaptive framework missing %q", present)
		}
	}

	// With a connection bound the limiter's ceiling is the bound and the
	// inflight source is the generated activeConns counter.
	bounded := base.WithAdaptiveShed(true)
	bounded.MaxConnections = 300
	boundedSrc := all(gen(bounded))
	for _, present := range []string{
		"admissionMaxLimit    = 300",
		"s.gate.inflight = s.activeConns",
	} {
		if !strings.Contains(boundedSrc, present) {
			t.Errorf("bounded adaptive framework missing %q", present)
		}
	}

	// The sampling wrapper must forward priorities when O8 is selected,
	// or the limiter's probe events would jump the scheduling queue.
	sched := all(gen(base.WithScheduling(1, 8).WithAdaptiveShed(true)))
	if !strings.Contains(sched, "func (e waitSampledEvent) Priority() int") {
		t.Error("adaptive + scheduling framework missing the priority forwarder")
	}

	// Deselecting the option is byte-identical to never selecting it.
	if off := all(gen(base.WithAdaptiveShed(true).WithAdaptiveShed(false))); off != plain {
		t.Error("AdaptiveShed=false output differs from watermark-only output")
	}

	// The crosscut requires O9: the limiter layers on the watermark gate.
	if _, err := Generate("nserver", options.COPSHTTP().WithAdaptiveShed(true)); err == nil {
		t.Error("adaptive shed without overload control validated")
	}
}

// TestAdaptiveShedFrameworksCompile sweeps the crosscut against the
// options it interacts with (scheduling, sharding, thread pool,
// connection bounds): every woven framework must compile standalone.
func TestAdaptiveShedFrameworksCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix build in -short mode")
	}
	combos := map[string]options.Options{
		"pool-async": options.COPSHTTP().WithOverloadControl(20, 5).
			WithAdaptiveShed(true),
		"no-pool": func() options.Options {
			o := options.Options{DispatcherThreads: 2, Codec: true}
			return o.WithOverloadControl(20, 5).WithAdaptiveShed(true)
		}(),
		"sharded-sched": options.COPSHTTP().WithOverloadControl(20, 5).
			WithScheduling(1, 8).WithShards(4).WithAdaptiveShed(true),
		"maxconns": func() options.Options {
			o := options.COPSHTTP().WithOverloadControl(20, 5)
			o.MaxConnections = 300
			return o.WithAdaptiveShed(true)
		}(),
		"ftp": options.COPSFTP().WithOverloadControl(20, 5).
			WithAdaptiveShed(true),
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

// TestAdaptiveShedGenerationIsDeterministic: regenerate-and-diff must
// keep working with the admission crosscut woven in.
func TestAdaptiveShedGenerationIsDeterministic(t *testing.T) {
	o := options.COPSHTTP().WithOverloadControl(20, 5).
		WithScheduling(1, 8).WithShards(2).WithAdaptiveShed(true)
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
