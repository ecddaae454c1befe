package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type jsonLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// shortRun runs a workload for a fixed number of timed rounds and returns
// its printed report and JSON line.
func shortRun(t *testing.T, workload string, seed int64, traced bool) (string, jsonLine) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, trace: traced, rounds: 3, setups: 1,
		spans: filepath.Join(t.TempDir(), "spans.tsv")}
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	raw, err := res.jsonLine(traced)
	if err != nil {
		t.Fatal(err)
	}
	var line jsonLine
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s: run not correct: %s\n%s", workload, raw, out.String())
	}
	return out.String(), line
}

// Every workload prints every metric of BENCHMARK.json by name, with the
// unit BENCHMARK.json gives it, in the JSON line of the matching mode, and
// the traced run writes its span file and self-time table.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			text, line := shortRun(t, w.Name, defaultSeed, traced)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the JSON line, BENCHMARK.json lists %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !strings.Contains(text, m.Name) {
					t.Errorf("%s trace=%v: %s not printed", w.Name, traced, m.Name)
				}
			}
			if traced && !strings.Contains(text, "self_ms") {
				t.Errorf("%s: traced run printed no self-time table", w.Name)
			}
		}
	}
}

// The counts the simulated network makes come out identical across two
// runs with the same seed: the workload is a function of the seed alone.
func TestSimnetCountsRepeatExactly(t *testing.T) {
	names := []string{"msgs_per_op", "bytes_per_op", "reclaim_rounds_p50", "reclaim_rounds_p90", "recovery_uses"}
	for _, w := range []string{"hot-objects", "gc-churn"} {
		first := map[string]float64{}
		for i := 0; i < 2; i++ {
			// The traced run's JSON line carries the reclaim and
			// recovery counts; the untraced one the per-op counts.
			_, plain := shortRun(t, w, 3, false)
			_, traced := shortRun(t, w, 3, true)
			for _, n := range names {
				m, ok := plain.Metrics[n]
				if !ok {
					m, ok = traced.Metrics[n]
				}
				if !ok {
					t.Fatalf("%s: %s not reported", w, n)
				}
				if i == 0 {
					first[n] = m.Value
				} else if m.Value != first[n] {
					t.Errorf("%s: %s = %v, then %v with the same seed", w, n, first[n], m.Value)
				}
			}
		}
	}
}
