package core

import (
	"reflect"
	"testing"

	"keddah/internal/faults"
	"keddah/internal/workload"
)

// chaosSchedule mixes all three fault kinds inside the job window of a
// small terasort on a 6-worker star (access links 0..6, worker links
// start at 1 because link 0 belongs to the master).
func chaosSchedule() faults.Schedule {
	return faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.LinkDown, Link: 2, AtNs: 6_000_000_000, DurationNs: 3_000_000_000},
		{Kind: faults.LinkDegrade, Link: 4, AtNs: 8_000_000_000, DurationNs: 4_000_000_000, Factor: 0.25},
		{Kind: faults.NodeCrash, Worker: 3, AtNs: 7_000_000_000, DurationNs: 12_000_000_000},
	}}
}

func chaosSpecAndRuns() (ClusterSpec, []workload.RunSpec) {
	return ClusterSpec{Workers: 6, Seed: 99},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: 256 << 20}}
}

// TestEmptyScheduleLockstep is the lockstep guarantee: a capture with an
// empty fault schedule must be record-identical — the whole TraceSet,
// stats included — to one that never went near the faults package.
func TestEmptyScheduleLockstep(t *testing.T) {
	spec, runs := chaosSpecAndRuns()
	plain, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	empty, _, err := CaptureWith(spec, runs, CaptureOpts{Faults: faults.Schedule{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, empty) {
		t.Error("empty fault schedule changed the capture")
	}
}

// TestFaultCaptureDeterministic reruns the same seed and non-empty
// schedule and requires bit-identical trace sets: fault injection must
// not introduce any ordering or RNG nondeterminism.
func TestFaultCaptureDeterministic(t *testing.T) {
	spec, runs := chaosSpecAndRuns()
	sched := chaosSchedule()
	a, resA, err := CaptureWith(spec, runs, CaptureOpts{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	b, resB, err := CaptureWith(spec, runs, CaptureOpts{Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and schedule produced different trace sets")
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Error("same seed and schedule produced different run results")
	}
	// The schedule actually did something — otherwise this test proves
	// nothing beyond the lockstep case.
	if a.Stats.AbortedFlows == 0 {
		t.Error("chaos schedule aborted no flows")
	}
	if reflect.DeepEqual(a.Runs[0].Records, mustHealthy(t).Runs[0].Records) {
		t.Error("chaos capture identical to healthy capture")
	}
}

func mustHealthy(t *testing.T) *TraceSet {
	t.Helper()
	spec, runs := chaosSpecAndRuns()
	ts, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestFaultScheduleValidated(t *testing.T) {
	spec, runs := chaosSpecAndRuns()
	bad := faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.LinkDown, Link: 9999, AtNs: 1, DurationNs: 1},
	}}
	if _, _, err := CaptureWith(spec, runs, CaptureOpts{Faults: bad}); err == nil {
		t.Error("out-of-range link fault accepted")
	}
	overlapping := faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.NodeCrash, Worker: 1, AtNs: 1_000_000_000, DurationNs: 5_000_000_000},
		{Kind: faults.NodeCrash, Worker: 1, AtNs: 2_000_000_000, DurationNs: 5_000_000_000},
	}}
	if _, _, err := CaptureWith(spec, runs, CaptureOpts{Faults: overlapping}); err == nil {
		t.Error("overlapping faults on one worker accepted")
	}
}
