package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json this package must agree
// with.
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

// TestWorkloadsTiny runs every workload at tiny scale, untraced and
// traced, and checks that its outputs pass every check and that it
// reports exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: defaultSeed, trace: trace, scale: tiny, dir: t.TempDir()}
			rep, err := run(cfg, io.Discard, testLog{t})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed", w, trace, rep.Failed, rep.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// testLog sends check failures to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
