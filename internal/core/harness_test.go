package core

import (
	"context"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/workload"
)

func TestClusterSpecTopologies(t *testing.T) {
	cases := []struct {
		spec  ClusterSpec
		hosts int
	}{
		{ClusterSpec{Topology: "star", Workers: 4}, 5},
		{ClusterSpec{Topology: "multirack", Workers: 5, Racks: 2}, 6},
		{ClusterSpec{Topology: "fattree", FatTreeK: 4}, 16},
	}
	for _, c := range cases {
		topo, err := c.spec.BuildTopology()
		if err != nil {
			t.Errorf("%s: %v", c.spec.Topology, err)
			continue
		}
		if got := len(topo.Hosts()); got != c.hosts {
			t.Errorf("%s hosts = %d, want %d", c.spec.Topology, got, c.hosts)
		}
	}
	if _, err := (ClusterSpec{Topology: "mesh"}).BuildTopology(); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := (ClusterSpec{Allocator: "psychic"}).BuildCluster(); err == nil {
		t.Error("unknown allocator accepted")
	}
}

func TestCaptureWithValidation(t *testing.T) {
	spec := ClusterSpec{Workers: 4, Seed: 1}
	runs := []workload.RunSpec{{Profile: "grep", InputBytes: 128 << 20}}
	if _, _, err := CaptureWith(spec, runs, CaptureOpts{
		Failures: []FailureSpec{{WorkerIndex: 99, AtNs: 1}},
	}); err == nil {
		t.Error("out-of-range failure worker accepted")
	}
	if _, _, err := CaptureWith(spec, []workload.RunSpec{{Profile: "bogus", InputBytes: 1}}, CaptureOpts{}); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestCaptureDeterministicAcrossCalls(t *testing.T) {
	spec := ClusterSpec{Workers: 6, Seed: 77}
	runs := []workload.RunSpec{{Profile: "wordcount", InputBytes: 256 << 20}}
	a, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs[0].Records) != len(b.Runs[0].Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Runs[0].Records), len(b.Runs[0].Records))
	}
	for i := range a.Runs[0].Records {
		if a.Runs[0].Records[i] != b.Runs[0].Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if a.Runs[0].EndNs != b.Runs[0].EndNs {
		t.Error("run end times differ")
	}
}

// TestCaptureMatchesReferenceAllocator fences the max-min allocator at the
// capture-pipeline level: a two-job fat-tree session (many multi-hop paths
// sharing core links) must reproduce the committed digests, which were
// recorded while the from-scratch reference allocator still ran beside
// the incremental one and agreed with it byte for byte.
func TestCaptureMatchesReferenceAllocator(t *testing.T) {
	checkCaptureGolden(t, goldenCapture{
		file: "capture-fattree.sha256",
		spec: ClusterSpec{Topology: "fattree", FatTreeK: 4, Seed: 42},
		runs: []workload.RunSpec{
			{Profile: "terasort", InputBytes: 512 << 20},
			{Profile: "wordcount", InputBytes: 256 << 20},
		},
	})
}

// TestReplayHonoursAllocator: ReplayWith builds its network from the same
// spec mapping as CaptureWith, so the A2 equal-split allocator changes a
// contended replay and an unknown allocator name is rejected. Worker 0's
// uplink carries one flow bottlenecked elsewhere (on worker 2's downlink,
// shared three ways); only max-min hands its unused share to the other.
func TestReplayHonoursAllocator(t *testing.T) {
	flow := func(src, dst, port int, bytes int64) SynthFlow {
		return SynthFlow{SrcHost: src, DstHost: dst, SrcPort: port, DstPort: 13562,
			Bytes: bytes, Phase: flows.PhaseShuffle, Job: "j"}
	}
	sched := []SynthFlow{
		flow(0, 1, 40001, 100<<20),
		flow(0, 2, 40002, 50<<20),
		flow(3, 2, 40003, 50<<20),
		flow(4, 2, 40004, 50<<20),
	}
	spec := ClusterSpec{Workers: 6, Seed: 1}
	_, maxmin, err := ReplayWith(sched, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Allocator = "equalsplit"
	_, split, err := ReplayWith(sched, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if split <= maxmin {
		t.Errorf("equal-split makespan %v not above max-min makespan %v", split, maxmin)
	}
	spec.Allocator = "bogus"
	if _, _, err := ReplayWith(sched, spec, nil); err == nil {
		t.Error("unknown allocator accepted by Replay")
	}
}

func TestGenerateValidation(t *testing.T) {
	ts := captureSmallCorpus(t)
	model, err := FitWith(ts, FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Generate(context.Background(), GenSpec{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	// Scaling: double input doubles structural shuffle counts.
	jm := model.Jobs["terasort"]
	s1, err := model.Generate(context.Background(), GenSpec{Workload: "terasort", Workers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := model.Generate(context.Background(), GenSpec{Workload: "terasort", InputBytes: 2 * jm.RefInputBytes, Workers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := func(s []SynthFlow, ph string) int {
		n := 0
		for _, f := range s {
			if string(f.Phase) == ph {
				n++
			}
		}
		return n
	}
	n1, n2 := count(s1, "shuffle"), count(s2, "shuffle")
	// Double input → double maps × double reducers ⇒ ~4× shuffle flows.
	if n2 < 3*n1 || n2 > 5*n1 {
		t.Errorf("shuffle count scaling: %d -> %d (want ≈4x)", n1, n2)
	}
	// Winsorization: no generated flow exceeds the observed support.
	maxSize := jm.Phases["shuffle"].SizeMax
	for _, f := range s2 {
		if f.Phase == "shuffle" && float64(f.Bytes) > maxSize+1 {
			t.Errorf("generated shuffle flow %d bytes beyond support %v", f.Bytes, maxSize)
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := FitWith(&TraceSet{}, FitOptions{}, nil); err == nil {
		t.Error("empty trace set accepted")
	}
}

// TestCountUnitsAndNames checks the phase rules Fit reads: each phase's
// count unit name, and that unit evaluated on a captured run.
func TestCountUnitsAndNames(t *testing.T) {
	r := &Run{Maps: 4, Reducers: 2, InputBytes: 512 << 20, BlockSize: 128 << 20,
		StartNs: 0, EndNs: 10e9}
	fitUnits := func(ph flows.Phase) float64 {
		u, structural := runShape(r).units(phaseRules[ph].unit)
		if !structural {
			return 0
		}
		return u
	}
	if u := fitUnits("shuffle"); u != 8 {
		t.Errorf("shuffle units = %v, want 8", u)
	}
	if u := fitUnits("hdfs_read"); u != 4 {
		t.Errorf("read units = %v, want 4", u)
	}
	// Control: 3·maps + 2·reducers + duration = 12 + 4 + 10.
	if u := fitUnits("control"); u != 26 {
		t.Errorf("control units = %v, want 26", u)
	}
	if u := fitUnits("other"); u != 0 {
		t.Errorf("fallback units = %v, want 0", u)
	}
	if phaseRules["shuffle"].unit != "mapxreduce" || phaseRules["hdfs_write"].unit != "block" ||
		phaseRules["control"].unit != "controlmix" || phaseRules["other"].unit != "job" {
		t.Error("unit names wrong")
	}
}

func TestFitDurationLine(t *testing.T) {
	// Perfectly affine data recovers intercept and slope.
	runs := []*Run{
		{InputBytes: 1 << 30, StartNs: 0, EndNs: int64(12e9)}, // 10 + 2/GB
		{InputBytes: 2 << 30, StartNs: 0, EndNs: int64(14e9)},
		{InputBytes: 4 << 30, StartNs: 0, EndNs: int64(18e9)},
	}
	a, b := fitDurationLine(runs)
	if diff := a - 10; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("intercept = %v, want 10", a)
	}
	perGB := b * float64(1<<30)
	if diff := perGB - 2; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("slope = %v s/GB, want 2", perGB)
	}
	// Single-size corpus falls back to proportional.
	same := []*Run{
		{InputBytes: 1 << 30, StartNs: 0, EndNs: int64(10e9)},
		{InputBytes: 1 << 30, StartNs: 0, EndNs: int64(12e9)},
	}
	a, b = fitDurationLine(same)
	if a != 0 || b <= 0 {
		t.Errorf("proportional fallback = (%v, %v)", a, b)
	}
	jm := &JobModel{DurIntercept: 10, DurSecsPerByte: 2.0 / float64(1<<30)}
	if d := jm.DurationAt(3 << 30); d < 15.9 || d > 16.1 {
		t.Errorf("DurationAt(3GB) = %v, want 16", d)
	}
}

func TestExtractAtoms(t *testing.T) {
	// 60% of the sample is exactly one value → one atom + residue.
	xs := []float64{128, 128, 128, 128, 128, 128, 10, 20, 30, 40}
	atoms, rest := extractAtoms(xs)
	if len(atoms) != 1 || atoms[0].Value != 128 {
		t.Fatalf("atoms = %+v", atoms)
	}
	if atoms[0].Weight != 0.6 {
		t.Errorf("weight = %v, want 0.6", atoms[0].Weight)
	}
	if len(rest) != 4 {
		t.Errorf("rest = %v", rest)
	}
	// No repeats → no atoms.
	atoms, rest = extractAtoms([]float64{1, 2, 3, 4, 5, 6})
	if len(atoms) != 0 || len(rest) != 6 {
		t.Errorf("unexpected atoms on distinct sample: %+v", atoms)
	}
	// Tiny samples skip atomisation.
	atoms, _ = extractAtoms([]float64{5, 5, 5})
	if len(atoms) != 0 {
		t.Errorf("atoms on tiny sample: %+v", atoms)
	}
}

func TestWinsorize(t *testing.T) {
	if v := winsorize(50, 10, 40); v != 40 {
		t.Errorf("high clamp = %v", v)
	}
	if v := winsorize(5, 10, 40); v != 10 {
		t.Errorf("low clamp = %v", v)
	}
	if v := winsorize(25, 10, 40); v != 25 {
		t.Errorf("in-range changed = %v", v)
	}
	if v := winsorize(99, 0, 0); v != 99 {
		t.Errorf("unset support clamped = %v", v)
	}
}
