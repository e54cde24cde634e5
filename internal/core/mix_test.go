package core

import (
	"context"
	"testing"

	"keddah/internal/workload"
)

// mixModel fits a two-workload model for mix tests.
func mixModel(t *testing.T) *Model {
	t.Helper()
	ts, _, err := CaptureWith(ClusterSpec{Workers: 8, Seed: 13}, []workload.RunSpec{
		{Profile: "terasort", InputBytes: 512 << 20, JobName: "t0", InputPath: "/d/t"},
		{Profile: "terasort", InputBytes: 512 << 20, JobName: "t1", InputPath: "/d/t"},
		{Profile: "wordcount", InputBytes: 512 << 20, JobName: "w0", InputPath: "/d/w"},
		{Profile: "wordcount", InputBytes: 512 << 20, JobName: "w1", InputPath: "/d/w"},
	}, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitWith(ts, FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestGenerateMixComposition(t *testing.T) {
	model := mixModel(t)
	sched, err := model.GenerateMix(context.Background(), MixSpec{
		Weights:       map[string]float64{"terasort": 3, "wordcount": 1},
		JobsPerMinute: 6,
		WindowSecs:    600,
		Workers:       8,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeMix(sched)
	totalJobs := sum.Arrivals["terasort"] + sum.Arrivals["wordcount"]
	// 6/min over 10 min ≈ 60 arrivals; Poisson spread allows slack.
	if totalJobs < 35 || totalJobs > 90 {
		t.Errorf("arrivals = %d, want ≈60", totalJobs)
	}
	// 3:1 weighting within sampling noise.
	ratio := float64(sum.Arrivals["terasort"]) / float64(sum.Arrivals["wordcount"]+1)
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("terasort:wordcount ratio = %.2f, want ≈3", ratio)
	}
	if sum.Flows != len(sched) {
		t.Errorf("summary flows = %d, schedule = %d", sum.Flows, len(sched))
	}
	// Arrivals spread across the window.
	if sum.SpanSecs < 300 {
		t.Errorf("span = %.1fs, want most of the 600s window", sum.SpanSecs)
	}
	// Schedule is time sorted.
	for i := 1; i < len(sched); i++ {
		if sched[i].StartNs < sched[i-1].StartNs {
			t.Fatal("mix schedule not sorted")
		}
	}
}

func TestGenerateMixDeterministic(t *testing.T) {
	model := mixModel(t)
	spec := MixSpec{Weights: map[string]float64{"terasort": 1}, JobsPerMinute: 4, WindowSecs: 120, Workers: 8, Seed: 9}
	a, err := model.GenerateMix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := model.GenerateMix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestGenerateMixValidation(t *testing.T) {
	model := mixModel(t)
	if _, err := model.GenerateMix(context.Background(), MixSpec{}); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := model.GenerateMix(context.Background(), MixSpec{Weights: map[string]float64{"bogus": 1}}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := model.GenerateMix(context.Background(), MixSpec{Weights: map[string]float64{"terasort": -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := model.GenerateMix(context.Background(), MixSpec{Weights: map[string]float64{"terasort": 0}}); err == nil {
		t.Error("zero-sum weights accepted")
	}
}

func TestGenerateMixReplays(t *testing.T) {
	model := mixModel(t)
	sched, err := model.GenerateMix(context.Background(), MixSpec{
		Weights:       map[string]float64{"terasort": 1, "wordcount": 1},
		JobsPerMinute: 10,
		WindowSecs:    60,
		Workers:       8,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, makespan, err := ReplayWith(sched, ClusterSpec{Workers: 8, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sched) {
		t.Errorf("replayed %d of %d flows", len(recs), len(sched))
	}
	if makespan <= 0 {
		t.Error("zero makespan")
	}
}

// TestMixRefusalDrawsBoundedArrivals: a mix whose arrivals' flows pass
// the caller's limit stops drawing there. Refusing 10^6 terasort jobs a
// minute over 60 s draws at most ⌈limit ÷ flows per job⌉ + 1 arrivals,
// counted from the plan, and reports a count above the limit; a limit
// the mix fits under draws every arrival and reports the exact count.
func TestMixRefusalDrawsBoundedArrivals(t *testing.T) {
	model := mixModel(t)
	huge := MixSpec{Weights: map[string]float64{"terasort": 1}, JobsPerMinute: 1e6, WindowSecs: 60}
	for _, limit := range []int64{1, 3000, 1 << 20} {
		p, err := model.planMix(huge, limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		perJob := p.shapes["terasort"].perJob
		if bound := (limit+perJob-1)/perJob + 1; int64(len(p.arrivals)) > bound {
			t.Errorf("limit %d: drew %d arrivals, bound %d", limit, len(p.arrivals), bound)
		}
		n, err := model.EstimateMixFlows(huge, limit)
		if err != nil || n <= limit {
			t.Errorf("limit %d: EstimateMixFlows = %d, %v; want a count above the limit", limit, n, err)
		}
	}

	small := MixSpec{Weights: map[string]float64{"terasort": 2, "wordcount": 1},
		JobsPerMinute: 4, WindowSecs: 240, Workers: 10, Seed: 29}
	sched, err := model.GenerateMix(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(sched))
	for _, limit := range []int64{n, n + 1, 0} {
		if got, err := model.EstimateMixFlows(small, limit); err != nil || got != n {
			t.Errorf("limit %d: EstimateMixFlows = %d, %v; want %d", limit, got, err, n)
		}
	}
	if got, err := model.EstimateMixFlows(small, n-1); err != nil || got <= n-1 {
		t.Errorf("limit %d: EstimateMixFlows = %d, %v; want a count above the limit", n-1, got, err)
	}
}
