package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that the run is correct and emits exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, s := range specs {
		if !slices.Contains(names, s.Name) {
			t.Errorf("workload %s is not in BENCHMARK.json", s.Name)
		}
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				o := options{Workload: w.Name, Seed: 7, Seconds: 1, Trace: trace, Keys: 1 << 12, Setups: 1, TraceDir: t.TempDir()}
				res, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s not emitted", n)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", n, m.Unit, unit)
					}
				}
				for n := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", n)
					}
				}
			})
		}
	}
}
