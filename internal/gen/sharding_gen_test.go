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

// TestShardingCrosscutWeaving asserts the multi-reactor sharding crosscut
// follows the generation-time weaving rule: a framework generated without
// shards (or with one) contains no trace of the sharded runtime, and a
// sharded framework contains the whole machinery — N reactors, round-robin
// placement, server-wide handle issuance and bounded work stealing.
func TestShardingCrosscutWeaving(t *testing.T) {
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

	base := options.COPSHTTP().WithScheduling(1, 8).WithOverloadControl(20, 5)
	plain := gen(base)
	for _, absent := range []string{
		"shard", "Shard", "steal", "TryPop", "handleSeq",
		"reactors", "submitReactive", "peers",
	} {
		if strings.Contains(plain, absent) {
			t.Errorf("unsharded framework contains %q — crosscut not woven out", absent)
		}
	}

	sharded := gen(base.WithShards(4))
	for _, present := range []string{
		"reactors  [4]*Reactor", "nextShard", "handleSeq",
		"stealBatch = 4", "func (p *EventProcessor) steal() bool",
		"func (q *PriorityQueue) TryPop()", "submitReactive",
		"s.reactors[int(s.nextShard.Add(1)-1)%4]",
	} {
		if !strings.Contains(sharded, present) {
			t.Errorf("sharded framework missing %q", present)
		}
	}
	// The O8-aware steal: the sharded priority queue's TryPop must follow
	// the same quota cycle as Pop (both take the quota-cycle popLocked).
	if strings.Count(sharded, "return q.popLocked(), true") != 2 {
		t.Error("sharded priority tryPop does not share pop's quota cycle")
	}
	// The overload gate watches every shard's processor.
	if !strings.Contains(sharded, `s.marks.Watch("reactive", s.reactors[i].proc, 20, 5)`) {
		t.Error("overload gate does not watch the per-shard processors")
	}

	// One shard selects the paper's single-reactor layout: byte-identical
	// output to not selecting the crosscut at all.
	if one := gen(base.WithShards(1)); one != plain {
		t.Error("Shards=1 output differs from unsharded output")
	}
}

// TestShardedFrameworksCompile sweeps the sharding crosscut against the
// option combinations it interacts with (thread pool, completion events,
// scheduling, overload, dynamic allocation, cache, large files,
// hardening): every woven framework must compile standalone.
func TestShardedFrameworksCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix build in -short mode")
	}
	combos := map[string]options.Options{
		"pool-async": options.COPSHTTP().WithShards(2),
		"no-pool": func() options.Options {
			o := options.Options{DispatcherThreads: 2, Codec: true}
			return o.WithShards(2)
		}(),
		"sched-overload-observed": func() options.Options {
			o := options.COPSHTTP().WithScheduling(1, 8).WithOverloadControl(20, 5)
			o.Profiling = true
			o.Logging = true
			o.Mode = options.Debug
			o.ShutdownLongIdle = true
			o.IdleTimeout = time.Minute
			return o.WithShards(3)
		}(),
		"dynamic-cache-largefile": func() options.Options {
			o := options.COPSHTTP().WithLargeFiles(1 << 20)
			o.Allocation = options.DynamicAllocation
			o.MinEventThreads = 1
			o.MaxEventThreads = 4
			o.Cache = options.LFU
			return o.WithShards(4)
		}(),
		"hardened": options.COPSHTTP().
			WithHardening(5*time.Second, 2*time.Second, 1<<20).
			WithShards(2),
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

// TestShardedGenerationIsDeterministic: regenerate-and-diff must keep
// working with the sharding crosscut woven in.
func TestShardedGenerationIsDeterministic(t *testing.T) {
	o := options.COPSHTTP().WithScheduling(1, 8).WithShards(4)
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
