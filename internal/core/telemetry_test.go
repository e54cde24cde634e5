package core

import (
	"bytes"
	"slices"
	"testing"

	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// instrumentedCapture runs one fixed-seed capture (including a worker
// failure, so recovery counters fire) and returns the deterministic JSON
// snapshot bytes.
func instrumentedCapture(t *testing.T) ([]byte, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New()
	spec := ClusterSpec{Workers: 8, Seed: 11}
	runs := []workload.RunSpec{
		{Profile: "terasort", InputBytes: 512 << 20},
		{Profile: "wordcount", InputBytes: 256 << 20},
	}
	opts := CaptureOpts{
		Telemetry: tel,
		Failures:  []FailureSpec{{WorkerIndex: 2, AtNs: 5_000_000_000}},
	}
	if _, _, err := CaptureWith(spec, runs, opts); err != nil {
		t.Fatalf("capture: %v", err)
	}
	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tel
}

// TestTelemetrySnapshotDeterministic is the PR's headline invariant:
// two captures with the same seed and spec produce byte-identical JSON
// snapshots (wall-clock gauges are excluded; everything else is driven
// by the deterministic simulation).
func TestTelemetrySnapshotDeterministic(t *testing.T) {
	a, _ := instrumentedCapture(t)
	b, _ := instrumentedCapture(t)
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed snapshots differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestTelemetryCountersPopulated checks the cross-layer wiring: one
// instrumented capture with a worker failure must move counters in every
// layer it touches.
func TestTelemetryCountersPopulated(t *testing.T) {
	_, tel := instrumentedCapture(t)
	checks := []struct {
		name string
		got  int64
	}{
		{"sim events", tel.Sim.Events.Value()},
		{"net flows completed", tel.Net.FlowsCompleted.Value()},
		{"net flow bytes observations", tel.Net.FlowBytes.Count()},
		{"hdfs blocks written", tel.HDFS.BlocksWritten.Value()},
		{"hdfs re-replicated blocks", tel.HDFS.ReReplicatedBlocks.Value()},
		{"yarn containers granted", tel.Yarn.ContainersGranted.Value()},
		{"yarn node expiries", tel.Yarn.NodeExpiries.Value()},
		{"mr jobs completed", tel.MR.JobsCompleted.Value()},
		{"mr maps completed", tel.MR.MapsCompleted.Value()},
		{"mr shuffle fetches", tel.MR.ShuffleFetches.Value()},
		{"core captures", tel.Core.Captures.Value()},
	}
	for _, c := range checks {
		if c.got == 0 {
			t.Errorf("%s = 0, want > 0", c.name)
		}
	}
	if len(tel.Trace.Spans()) == 0 {
		t.Error("no spans traced")
	}
}

// TestTelemetryDoesNotPerturbCapture: attaching telemetry must not
// change the simulation trajectory — same records and makespan as a bare
// run. This is why fault bookkeeping events are scheduled identically
// whether or not a sink is attached.
func TestTelemetryDoesNotPerturbCapture(t *testing.T) {
	spec := ClusterSpec{Workers: 8, Seed: 11}
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 512 << 20}}
	opts := CaptureOpts{Failures: []FailureSpec{{WorkerIndex: 2, AtNs: 5_000_000_000}}}

	bare, bareRes, err := CaptureWith(spec, runs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = telemetry.New()
	inst, instRes, err := CaptureWith(spec, runs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Runs) != len(inst.Runs) {
		t.Fatalf("run count changed: %d != %d", len(bare.Runs), len(inst.Runs))
	}
	for i := range bare.Runs {
		br, ir := bare.Runs[i], inst.Runs[i]
		if len(br.Records) != len(ir.Records) {
			t.Fatalf("run %d flow count changed: %d != %d", i, len(br.Records), len(ir.Records))
		}
		for j := range br.Records {
			if br.Records[j] != ir.Records[j] {
				t.Fatalf("run %d flow %d changed: %+v != %+v", i, j, br.Records[j], ir.Records[j])
			}
		}
	}
	if bareRes[0].Rounds[0].Duration() != instRes[0].Rounds[0].Duration() {
		t.Errorf("job duration changed: %v != %v",
			bareRes[0].Rounds[0].Duration(), instRes[0].Rounds[0].Duration())
	}
}

// TestReplayWithTelemetry covers the replay path's instrumentation and
// its determinism.
func TestReplayWithTelemetry(t *testing.T) {
	sched := sampleSchedule()
	tel := telemetry.New()
	recs, makespan, err := ReplayWith(sched, ClusterSpec{Workers: 8, Seed: 3}, tel)
	if err != nil {
		t.Fatal(err)
	}
	bareRecs, bareMakespan, err := ReplayWith(sched, ClusterSpec{Workers: 8, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(bareRecs) || makespan != bareMakespan {
		t.Errorf("instrumented replay diverged: %d/%v vs %d/%v",
			len(recs), makespan, len(bareRecs), bareMakespan)
	}
	if tel.Core.Replays.Value() != 1 {
		t.Errorf("replays counter = %d", tel.Core.Replays.Value())
	}
	if tel.Net.FlowsCompleted.Value() == 0 {
		t.Error("replay flows not counted")
	}

	// A link timeline attaches the utilisation probe, whose ticks must
	// change neither a record nor the makespan, under either transport.
	for _, transport := range []string{"fluid", "tcp"} {
		spec := ClusterSpec{Workers: 8, Seed: 3, Transport: transport}
		bareRecs, bareMakespan, err := ReplayWith(sched, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New()
		tl := tel.EnableLinkTimeline()
		recs, makespan, err := ReplayWith(sched, spec, tel)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(recs, bareRecs) || makespan != bareMakespan {
			t.Errorf("%s: probed replay diverged: %d records ending %v, bare %d ending %v",
				transport, len(recs), makespan, len(bareRecs), bareMakespan)
		}
		if last := bareRecs[len(bareRecs)-1].LastNs; int64(makespan) != last {
			t.Errorf("%s: makespan %v, want the last flow's finish %d", transport, makespan, last)
		}
		topo, err := spec.BuildTopology()
		if err != nil {
			t.Fatal(err)
		}
		sampled := make([]bool, topo.NumLinks())
		for _, p := range tl.Points() {
			sampled[p.Link] = true
		}
		if i := slices.Index(sampled, false); i >= 0 {
			t.Errorf("%s: link timeline holds no point for link %d (%d points)", transport, i, len(tl.Points()))
		}
	}
}
