package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"runtime/debug"
	"testing"

	"keddah/internal/faults"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// goldenCapture is one capture session whose deterministic artifacts are
// fenced by committed SHA-256 digests in testdata/<file>.
type goldenCapture struct {
	name string
	file string
	spec ClusterSpec
	runs []workload.RunSpec
	opts CaptureOpts
}

// checkCaptureGolden runs the session with telemetry attached and
// compares one "<sha256>  <artifact>" line per deterministic artifact —
// the TraceSet JSON, the WriteFlowCSV output and the telemetry snapshot
// JSON — against its committed golden file (rewritten under -update).
// The digests are amd64 values: the simulator's floating-point
// trajectory is pinned to that platform.
func checkCaptureGolden(t *testing.T, gc goldenCapture) {
	t.Helper()
	tel := telemetry.New()
	opts := gc.opts
	opts.Telemetry = tel
	ts, _, err := CaptureWith(gc.spec, gc.runs, opts)
	if err != nil {
		t.Fatal(err)
	}
	artifacts := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"traceset.json", ts.WriteJSON},
		{"flows.csv", func(w io.Writer) error { return WriteFlowCSV(w, ts) }},
		{"telemetry.json", tel.WriteJSON},
	}
	var buf bytes.Buffer
	for _, a := range artifacts {
		h := sha256.New()
		if err := a.write(h); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		fmt.Fprintf(&buf, "%x  %s\n", h.Sum(nil), a.name)
	}
	checkGolden(t, gc.file, buf.Bytes())
}

// TestCaptureGoldenDigests fences full capture sessions shaped like the
// suite's E4 (replication sweep point), E11 (worker failure) and E16
// (chaos schedule with re-routes and aborts) experiments, plus a
// three-pod ring whose worker failure and node crash land on different
// pods: every synthesised flow record and
// timestamp, the flow CSV and the deterministic telemetry snapshot must
// match the committed digests.
func TestCaptureGoldenDigests(t *testing.T) {
	cases := []goldenCapture{
		{
			name: "E4 replication sweep point",
			file: "capture-e4.sha256",
			spec: ClusterSpec{Workers: 6, Replication: 2, Seed: 7},
			runs: []workload.RunSpec{{Profile: "terasort", InputBytes: 192 << 20}},
		},
		{
			name: "E11 worker failure",
			file: "capture-e11.sha256",
			spec: ClusterSpec{Workers: 6, Seed: 11},
			runs: []workload.RunSpec{{Profile: "sort", InputBytes: 192 << 20}},
			opts: CaptureOpts{Failures: []FailureSpec{{WorkerIndex: 2, AtNs: 6_000_000_000}}},
		},
		{
			name: "E16 chaos schedule",
			file: "capture-e16.sha256",
			spec: ClusterSpec{Workers: 6, Seed: 99},
			runs: []workload.RunSpec{{Profile: "terasort", InputBytes: 256 << 20}},
			opts: CaptureOpts{Faults: chaosSchedule()},
		},
		{
			name: "multi-pod ring with faults",
			file: "capture-multipod.sha256",
			spec: ClusterSpec{Workers: 4, Pods: 3, Seed: 13},
			runs: []workload.RunSpec{
				{Profile: "terasort", InputBytes: 16 << 20},
				{Profile: "sort", InputBytes: 16 << 20},
				{Profile: "terasort", InputBytes: 16 << 20},
			},
			opts: CaptureOpts{
				// Worker 5 = pod 1 / local 1; crash worker 10 = pod 2 / local 2.
				Failures: []FailureSpec{{WorkerIndex: 5, AtNs: 2_000_000_000}},
				Faults: faults.Schedule{Faults: []faults.Fault{
					{Kind: faults.NodeCrash, Worker: 10, AtNs: 1_500_000_000, DurationNs: 30_000_000_000},
				}},
			},
		},
	}
	for _, gc := range cases {
		t.Run(gc.name, func(t *testing.T) { checkCaptureGolden(t, gc) })
	}
}

// TestE17bCaptureGoldenDigests fences the transport comparison: an
// E17b-shaped terasort capture on a 16-worker star under the fluid and
// the TCP transport, each healthy and under one random mixed fault
// schedule drawn, as E17b draws it, inside the fluid healthy job window.
func TestE17bCaptureGoldenDigests(t *testing.T) {
	spec := ClusterSpec{Topology: "star", Workers: 16, Seed: 1}
	// 1 GiB (8 maps) is the smallest input at which both fast retransmit
	// and RTO fire in the TCP cells.
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 1 << 30}}
	topo, err := spec.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	round := res[0].Rounds[0]
	chaos := faults.Random(1017, faults.RandomOpts{
		N:             6,
		Kinds:         []faults.Kind{faults.LinkDown, faults.LinkDegrade, faults.NodeCrash},
		Links:         topo.NumLinks(),
		Workers:       16,
		WindowStartNs: int64(round.Submitted) + int64(round.Duration())/10,
		WindowEndNs:   int64(round.Submitted) + int64(round.Duration())*7/10,
		MinDurationNs: 3_000_000_000,
		MaxDurationNs: 8_000_000_000,
	})
	for _, transport := range []string{"fluid", "tcp"} {
		for _, scenario := range []string{"healthy", "chaos"} {
			gc := goldenCapture{
				name: transport + " " + scenario,
				file: "capture-e17b-" + transport + "-" + scenario + ".sha256",
				spec: spec,
				runs: runs,
			}
			gc.spec.Transport = transport
			if scenario == "chaos" {
				gc.opts.Faults = chaos
			}
			t.Run(gc.name, func(t *testing.T) { checkCaptureGolden(t, gc) })
		}
	}
}

// TestCaptureIdenticalUnderGCPressure: GC timing must never influence a
// capture. Running the same session under GOGC=20 — collections firing an
// order of magnitude more often, recycled slots and arenas churning
// through the allocator — must produce a byte-identical TraceSet.
func TestCaptureIdenticalUnderGCPressure(t *testing.T) {
	spec, runs := chaosSpecAndRuns()
	baseline, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	old := debug.SetGCPercent(20)
	defer debug.SetGCPercent(old)
	pressured, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, pressured) {
		t.Error("GOGC=20 changed the captured trace set")
	}
}
