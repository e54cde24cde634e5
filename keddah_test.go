package keddah_test

import (
	"bytes"
	"context"
	"testing"

	"keddah"
)

// capture runs a small terasort corpus through the public API.
func capture(t *testing.T, seed int64) *keddah.TraceSet {
	t.Helper()
	ts, results, err := keddah.Capture(keddah.ClusterSpec{Workers: 8, Seed: seed},
		[]keddah.RunSpec{
			{Profile: "terasort", InputBytes: 512 << 20, JobName: "a", InputPath: "/d"},
			{Profile: "terasort", InputBytes: 512 << 20, JobName: "b", InputPath: "/d"},
		}, keddah.CaptureOpts{})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	return ts
}

func TestPublicPipeline(t *testing.T) {
	ts := capture(t, 1)
	model, err := keddah.Fit(ts, keddah.FitOptions{}, nil)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	sched, err := model.Generate(context.Background(), keddah.GenSpec{Workload: "terasort", Workers: 8, Jobs: 2, Seed: 4})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	gen, makespan, err := keddah.Replay(sched, keddah.ClusterSpec{Workers: 8, Seed: 4}, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if makespan <= 0 || len(gen) == 0 {
		t.Fatal("replay produced nothing")
	}
	var measured []keddah.FlowRecord
	for _, r := range ts.Runs {
		measured = append(measured, r.Records...)
	}
	v := keddah.Validate("terasort", measured, gen, nil)
	if len(v.Phases) == 0 {
		t.Fatal("no validation rows")
	}
	for _, pc := range v.Phases {
		if pc.Phase == keddah.PhaseShuffle && pc.SizeKS > 0.5 {
			t.Errorf("shuffle size KS = %v", pc.SizeKS)
		}
	}
}

func TestPublicWorkloadsList(t *testing.T) {
	wl := keddah.Workloads()
	if len(wl) != 9 {
		t.Fatalf("workloads = %v", wl)
	}
}

func TestPublicFailureCapture(t *testing.T) {
	ts, results, err := keddah.Capture(keddah.ClusterSpec{Workers: 8, Seed: 9},
		[]keddah.RunSpec{{Profile: "sort", InputBytes: 512 << 20}},
		keddah.CaptureOpts{Failures: []keddah.FailureSpec{{WorkerIndex: 2, AtNs: 15_000_000_000}}})
	if err != nil {
		t.Fatalf("capture with failure: %v", err)
	}
	if results[0].Rounds[0].Failed {
		t.Fatal("job failed")
	}
	if ts.Stats.ReReplicatedBlocks == 0 {
		t.Error("no re-replication recorded")
	}
}

func TestPublicScheduleExports(t *testing.T) {
	ts := capture(t, 3)
	model, err := keddah.Fit(ts, keddah.FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := model.Generate(context.Background(), keddah.GenSpec{Workload: "terasort", Workers: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, ns3Buf bytes.Buffer
	if err := keddah.ExportCSV(&csvBuf, sched); err != nil {
		t.Fatalf("csv: %v", err)
	}
	back, err := keddah.ImportCSV(&csvBuf)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(back) != len(sched) {
		t.Errorf("csv round trip: %d != %d", len(back), len(sched))
	}
	if err := keddah.ExportNS3(&ns3Buf, sched, 8); err != nil {
		t.Fatalf("ns3: %v", err)
	}
	if ns3Buf.Len() == 0 {
		t.Error("empty ns3 export")
	}
}

func TestPublicModelSerialisation(t *testing.T) {
	ts := capture(t, 5)
	model, err := keddah.Fit(ts, keddah.FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	model2, err := keddah.ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(model2.Jobs) != len(model.Jobs) {
		t.Error("model lost workloads in serialisation")
	}
	var tsBuf bytes.Buffer
	if err := ts.WriteJSON(&tsBuf); err != nil {
		t.Fatal(err)
	}
	ts2, err := keddah.ReadTraceSet(&tsBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts2.Runs) != len(ts.Runs) {
		t.Error("trace set lost runs in serialisation")
	}
}
