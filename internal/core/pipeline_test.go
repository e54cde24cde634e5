package core

import (
	"bytes"
	"context"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/workload"
)

// captureSmallCorpus runs a few small jobs and returns the trace set.
func captureSmallCorpus(t *testing.T) *TraceSet {
	t.Helper()
	spec := ClusterSpec{Workers: 8, Seed: 11}
	runs := []workload.RunSpec{
		{Profile: "terasort", InputBytes: 512 << 20},
		{Profile: "terasort", InputBytes: 512 << 20},
		{Profile: "terasort", InputBytes: 512 << 20},
		{Profile: "wordcount", InputBytes: 512 << 20},
	}
	ts, results, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if len(results) != len(runs) {
		t.Fatalf("got %d results, want %d", len(results), len(runs))
	}
	return ts
}

func TestCaptureProducesRunsAndBackground(t *testing.T) {
	ts := captureSmallCorpus(t)
	if len(ts.Runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(ts.Runs))
	}
	if len(ts.Background) == 0 {
		t.Error("no background heartbeat flows captured")
	}
	for _, r := range ts.Runs {
		if len(r.Records) == 0 {
			t.Errorf("run %s has no flows", r.JobName)
		}
		if r.EndNs <= r.StartNs {
			t.Errorf("run %s has non-positive duration", r.JobName)
		}
		ds := r.Dataset()
		if ds.Count(flows.PhaseShuffle) == 0 {
			t.Errorf("run %s captured no shuffle flows", r.JobName)
		}
	}
}

func TestFitGenerateValidateRoundTrip(t *testing.T) {
	ts := captureSmallCorpus(t)
	model, err := FitWith(ts, FitOptions{}, nil)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	jm, ok := model.Jobs["terasort"]
	if !ok {
		t.Fatal("model missing terasort")
	}
	for _, ph := range flows.AllPhases {
		if _, ok := jm.Phases[ph]; !ok {
			t.Errorf("terasort model missing phase %s", ph)
		}
	}
	if model.Background == nil {
		t.Error("model missing background")
	}

	// Round-trip the model through JSON.
	var buf bytes.Buffer
	if err := model.WriteJSON(&buf); err != nil {
		t.Fatalf("write model: %v", err)
	}
	model2, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("read model: %v", err)
	}

	// Generate as many job instances as were measured, then replay.
	sched, err := model2.Generate(context.Background(), GenSpec{Workload: "terasort", Workers: 8, Jobs: 3, Seed: 5})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(sched) == 0 {
		t.Fatal("empty schedule")
	}
	gen, makespan, err := ReplayWith(sched, ClusterSpec{Workers: 8, Seed: 5}, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if makespan <= 0 {
		t.Error("replay produced zero makespan")
	}

	// Validate against the pooled measured terasort runs.
	var measured []pcap.FlowRecord
	for _, r := range ts.Runs {
		if r.Workload == "terasort" {
			measured = append(measured, r.Records...)
		}
	}
	v := ValidateWith("terasort", measured, gen, nil)
	if len(v.Phases) == 0 {
		t.Fatal("validation produced no phase comparisons")
	}
	for _, pc := range v.Phases {
		if pc.Phase == flows.PhaseShuffle || pc.Phase == flows.PhaseHDFSWrite {
			if pc.GeneratedFlows == 0 {
				t.Errorf("generated no %s flows", pc.Phase)
			}
			if pc.VolumeError > 0.5 {
				t.Errorf("%s volume error %.2f too high (meas %d gen %d bytes)",
					pc.Phase, pc.VolumeError, pc.MeasuredBytes, pc.GeneratedBytes)
			}
			if pc.SizeKS > 0.4 {
				t.Errorf("%s size KS %.3f too high", pc.Phase, pc.SizeKS)
			}
		}
	}
	var tbl bytes.Buffer
	if err := v.WriteTable(&tbl); err != nil {
		t.Fatalf("write table: %v", err)
	}
	if tbl.Len() == 0 {
		t.Error("empty validation table")
	}
}

func TestTraceSetJSONRoundTrip(t *testing.T) {
	ts := captureSmallCorpus(t)
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	ts2, err := ReadTraceSet(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(ts2.Runs) != len(ts.Runs) {
		t.Fatalf("runs: got %d want %d", len(ts2.Runs), len(ts.Runs))
	}
	if ts2.Runs[0].JobName != ts.Runs[0].JobName {
		t.Errorf("job name mismatch after round trip")
	}
	if len(ts2.Background) != len(ts.Background) {
		t.Errorf("background: got %d want %d", len(ts2.Background), len(ts.Background))
	}
}
