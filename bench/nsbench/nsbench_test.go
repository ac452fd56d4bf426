package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs, so spreads
// computed here agree with one computed from the emitted JSON.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // extrapolates past the ends
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), tc.xs...))
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

// benchmarkFile is the metric declaration of BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

// TestSmoke runs every workload against a freshly built server for one
// short untraced and one short traced slice plus a 200-request replay,
// and checks that every metric BENCHMARK.json declares comes out with its
// unit, that no request failed, and that the replay's spans nest with
// non-negative self time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and drives them for several seconds")
	}
	repo, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, nsbench has %d", len(spec.Workload), len(workloads))
	}
	out := t.TempDir()
	bin, ref, err := buildServers(repo, out)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{repo: repo, out: out, bin: bin, ref: ref, seed: 7, seconds: 3}
	for _, sw := range spec.Workload {
		t.Run(sw.Name, func(t *testing.T) {
			w, err := findWorkload(sw.Name)
			if err != nil {
				t.Fatal(err)
			}
			r := &run{wl: w, seed: cfg.seed, doc: newDocroot(w, cfg.seed)}
			r.root = filepath.Join(out, "docroot", w.name)
			if err := r.doc.write(r.root); err != nil {
				t.Fatal(err)
			}
			if err := measureSetup(cfg, r, 2); err != nil {
				t.Fatal(err)
			}
			if err := traceRun(cfg, r, time.Second, 200); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d requests failed: %v", r.failed, r.attempted, r.err)
			}
			e2e := r.endToEndMetrics()
			for _, m := range spec.EndToEnd {
				got, ok := e2e[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := r.trace.metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			spans, err := readSpans(filepath.Join(out, "trace", w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			self, err := selfTimes(spans)
			if err != nil {
				t.Fatal(err)
			}
			for name, ns := range self {
				if ns < 0 {
					t.Errorf("%s has negative self time %d ns", name, ns)
				}
			}
			for _, name := range []string{rttSpan, batchSpan, readSpan, dispatchSpan, hopSpan, decodeSpan, writevSpan} {
				if _, ok := self[name]; !ok {
					t.Errorf("no %s span written", name)
				}
			}
		})
	}
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}
