package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the noise check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// noise runs the benchmark as separate processes, exactly as the command
// line does: two sets of n runs of every workload, each run with its own
// seed, set A and set B alternating and workloads round-robin within each
// step so host drift spreads evenly. It then writes, per workload and
// end-to-end metric, each set's median and spread (interquartile range
// over median) and the difference of the set medians, against the bound
// BENCHMARK.json fixes.
func noise(cfg config, n int, out string) error {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(cfg.repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// vals[workload][metric][set] holds one value per run; spills[workload]
	// holds every slice's two spill shares.
	vals := make(map[string]map[string][2][]float64)
	spills := make(map[string][targets][]float64)
	for _, w := range workloads {
		vals[w.name] = make(map[string][2][]float64)
	}
	started := time.Now()
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			seed := cfg.seed + int64(2*i+set)
			for _, w := range workloads {
				res, err := childRun(cfg, w.name, seed)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				for name, m := range res.Metrics {
					v := vals[w.name][name]
					v[set] = append(v[set], m.Value)
					vals[w.name][name] = v
				}
				sp, err := readSpills(cfg, w.name, seed)
				if err != nil {
					return err
				}
				all := spills[w.name]
				for tg := range all {
					all[tg] = append(all[tg], sp[tg]...)
				}
				spills[w.name] = all
				fmt.Fprintf(os.Stderr, "noise: set %c run %d %s seed %d done (%v elapsed)\n",
					'A'+set, i+1, w.name, seed, time.Since(started).Round(time.Second))
			}
		}
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "## %s UTC, %d CPUs\n\n", time.Now().UTC().Format("2006-01-02 15:04"), runtime.NumCPU())
	fmt.Fprintf(&b, "`bash bench/run.sh --noise %d --seconds %d`, %v in total.\n\n",
		n, cfg.seconds, time.Since(started).Round(time.Second))
	fmt.Fprintf(&b, "| workload | metric | bound | median A | median B | Δ | spread A | spread B | spread all | verdict |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|\n")
	var overBound, overTarget int
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			v := vals[w.name][e.Name]
			if len(v[0]) == 0 || len(v[1]) == 0 {
				return fmt.Errorf("%s emitted no %s", w.name, e.Name)
			}
			ma, mb := median(append([]float64(nil), v[0]...)), median(append([]float64(nil), v[1]...))
			all := append(append([]float64(nil), v[0]...), v[1]...)
			diff := (mb - ma) / ma
			sa, sb, sall := spread(v[0]), spread(v[1]), spread(all)
			verdict := "ok"
			switch {
			case math.Abs(diff) > e.Bound || sall > e.Bound:
				verdict = "**over bound**"
				overBound++
			case math.Abs(diff) > e.Bound/2 || sall > e.Bound/3:
				verdict = "*over target*"
				overTarget++
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %+.1f%% | %.1f%% | %.1f%% | %.1f%% | %s |\n",
				w.name, e.Name, pct(e.Bound), num(ma), num(mb), 100*diff, 100*sa, 100*sb, 100*sall, verdict)
		}
	}
	fmt.Fprintf(&b, "\n%d of %d pairs over a bound, %d more over a target.\n",
		overBound, len(workloads)*len(spec.EndToEnd), overTarget)
	fmt.Fprintf(&b, "\nCross-window spill over all %d runs' slices: the share of a server's CPU spent in the other server's windows.\n\n", 2*n)
	fmt.Fprintf(&b, "| workload | copshttp in reference windows, median | max | reference in copshttp windows, median | max |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for _, w := range workloads {
		sp := spills[w.name]
		fmt.Fprintf(&b, "| %s | %.2f%% | %.2f%% | %.2f%% | %.2f%% |\n", w.name,
			100*median(append([]float64(nil), sp[subject]...)), 100*maximum(sp[subject]),
			100*median(append([]float64(nil), sp[reference]...)), 100*maximum(sp[reference]))
	}
	os.Stdout.Write(b.Bytes())

	// Sessions accumulate newest first under a fixed header.
	var prev []byte
	if old, err := os.ReadFile(out); err == nil {
		if i := bytes.Index(old, []byte("\n## ")); i >= 0 {
			prev = append([]byte("\n"), old[i+1:]...)
		}
	}
	doc := append([]byte(noiseHeader), b.Bytes()...)
	return os.WriteFile(out, append(doc, prev...), 0o644)
}

// noiseHeader opens NOISE.md; the sessions follow it.
const noiseHeader = `# Noise self-check

Each section is one run of ` + "`bash bench/run.sh --noise N`" + `, newest first: two
sets (A, B) of N runs per workload, alternating A B A B, each run a separate
process with its own seed. *spread* is (Q3 − Q1) / median as Python's
` + "`statistics.quantiles(n=4)`" + ` computes it; *all* pools both sets, the spread over
all 2N runs. *Δ* is set B's median relative to set A's. A pair
is **over bound** when |Δ| or the pooled spread exceeds its bound, and *over
target* when |Δ| exceeds half the bound or the pooled spread a third of it.

`

// childRun runs one untraced benchmark invocation in a separate process
// and parses its result line.
func childRun(cfg config, workload string, seed int64) (result, error) {
	var res result
	cmd := exec.Command(cfg.self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0", "-repo", cfg.repo, "-out", cfg.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// readSpills returns the per-slice spill shares a run wrote to its
// results file.
func readSpills(cfg config, workload string, seed int64) ([targets][]float64, error) {
	var sp [targets][]float64
	data, err := os.ReadFile(filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return sp, err
	}
	var doc struct{ Slices []sliceResult }
	if err := json.Unmarshal(data, &doc); err != nil {
		return sp, fmt.Errorf("results of %s seed %d: %w", workload, seed, err)
	}
	for _, s := range doc.Slices {
		sp[subject] = append(sp[subject], s.SubjectSpill)
		sp[reference] = append(sp[reference], s.ReferenceSpill)
	}
	return sp, nil
}

func pct(x float64) string { return strconv.FormatFloat(100*x, 'f', -1, 64) + "%" }

func num(x float64) string { return strconv.FormatFloat(x, 'g', 5, 64) }
