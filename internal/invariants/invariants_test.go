package invariants_test

import (
	"errors"
	"strings"
	"testing"

	"keddah/internal/core"
	"keddah/internal/faults"
	"keddah/internal/invariants"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

func TestViolationRendersContextAndMatchesErrViolation(t *testing.T) {
	v := &invariants.Violation{
		Layer:  "hdfs",
		Rule:   "conservation",
		AtNs:   42,
		Detail: "BytesWritten drifted",
		Spans: []telemetry.Span{
			{Cat: "mr", Name: "map", Attr: "job0", StartNs: 10, EndNs: 40},
		},
	}
	msg := v.Error()
	for _, want := range []string{"hdfs/conservation", "t=42ns", "BytesWritten drifted", "mr/map"} {
		if !strings.Contains(msg, want) {
			t.Errorf("rendered violation %q missing %q", msg, want)
		}
	}
	if !errors.Is(v, invariants.ErrViolation) {
		t.Error("Violation does not match ErrViolation with errors.Is")
	}
	var got *invariants.Violation
	if !errors.As(error(v), &got) {
		t.Error("errors.As failed to recover the Violation")
	}
}

// TestCheckerSilentOnSeedCaptures: strict checks pass on healthy
// captures — fault-free, with crash-stop failures, and with a random
// fault schedule — at an aggressive sampling interval.
func TestCheckerSilentOnSeedCaptures(t *testing.T) {
	spec := core.ClusterSpec{Workers: 8, Seed: 5}
	runSpec := []workload.RunSpec{{Profile: "terasort", InputBytes: 64 << 20}}
	if _, _, err := core.CaptureWith(spec, runSpec, core.CaptureOpts{StrictChecks: true}); err != nil {
		t.Fatalf("strict fault-free capture: %v", err)
	}
	sched := faults.Random(7, faults.RandomOpts{
		N: 3, Links: 18, Workers: 8,
		WindowStartNs: 2_000_000_000, WindowEndNs: 20_000_000_000,
	})
	if _, _, err := core.CaptureWith(spec, runSpec, core.CaptureOpts{StrictChecks: true, Faults: sched}); err != nil {
		t.Fatalf("strict faulted capture: %v", err)
	}
}

// TestCheckerAbortsRunOnCorruptedState: Attach wires the checker into
// the cluster's event loop; a corrupted counter surfaces as a typed
// Violation through RunToIdle's error path.
func TestCheckerAbortsRunOnCorruptedState(t *testing.T) {
	spec := core.ClusterSpec{Workers: 8, Seed: 5}
	cluster, err := spec.BuildCluster()
	if err != nil {
		t.Fatal(err)
	}
	ck := invariants.Attach(cluster, nil)
	if err := workload.Run(cluster, workload.RunSpec{Profile: "terasort", InputBytes: 32 << 20}, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Drift the conservation counter before the run: the very first
	// sweep must catch it.
	cluster.FS.BytesWritten += 1000
	_, err = cluster.RunToIdle()
	if err == nil {
		t.Fatal("corrupted cluster ran to idle without a violation")
	}
	if !errors.Is(err, invariants.ErrViolation) {
		t.Fatalf("RunToIdle error %v does not match ErrViolation", err)
	}
	var v *invariants.Violation
	if !errors.As(err, &v) {
		t.Fatalf("RunToIdle error %v is not a *Violation", err)
	}
	if v.Layer != "hdfs" || v.Rule != "conservation" {
		t.Errorf("violation attributed to %s/%s, want hdfs/conservation", v.Layer, v.Rule)
	}
	if ck.Steps() != 64 {
		t.Errorf("violation after %d engine steps, want 64 (the first sweep)", ck.Steps())
	}
}

// TestCheckerFinalCatchesWireDrift: Final's wire-conservation check
// compares the ground truth of the checker's own capture against the
// replica placement. A checker attached before the run must balance
// exactly in a fault-free run; one attached after it (its capture saw
// nothing on the wire) must fail the same check.
func TestCheckerFinalCatchesWireDrift(t *testing.T) {
	spec := core.ClusterSpec{Workers: 8, Seed: 5}
	cluster, err := spec.BuildCluster()
	if err != nil {
		t.Fatal(err)
	}
	ck := invariants.Attach(cluster, nil)
	if err := workload.Run(cluster, workload.RunSpec{Profile: "terasort", InputBytes: 32 << 20}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.RunToIdle(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Final(true); err != nil {
		t.Fatalf("balanced capture fails wire conservation: %v", err)
	}
	err = invariants.Attach(cluster, nil).Final(true)
	if err == nil {
		t.Fatal("empty capture passed wire conservation against a written FS")
	}
	var v *invariants.Violation
	if !errors.As(err, &v) || v.Rule != "wire-conservation" {
		t.Fatalf("got %v, want a wire-conservation Violation", err)
	}
}
