package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"keddah/internal/faults"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// multiPodOutput runs one multi-pod capture at the given engine layout
// and GOMAXPROCS and returns every deterministic artifact concatenated:
// the TraceSet JSON, the flow CSV, and the telemetry snapshot JSON.
// Byte-equality of this string across layouts is the lockstep criterion.
func multiPodOutput(t *testing.T, spec ClusterSpec, runs []workload.RunSpec, opts CaptureOpts, shards, procs int) (string, *TraceSet) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	tel := telemetry.New()
	o := opts
	o.Telemetry = tel
	spec.Shards = shards
	ts, results, err := CaptureWith(spec, runs, o)
	if err != nil {
		t.Fatalf("capture (shards=%d procs=%d): %v", shards, procs, err)
	}
	if len(results) != len(runs) {
		t.Fatalf("capture returned %d results for %d runs", len(results), len(runs))
	}
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlowCSV(&buf, ts); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(tel.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(snap)
	return buf.String(), ts
}

// lockstep compares a serial-layout reference against sharded layouts at
// several GOMAXPROCS settings.
func lockstep(t *testing.T, spec ClusterSpec, runs []workload.RunSpec, opts CaptureOpts, layouts []int, procs []int) *TraceSet {
	t.Helper()
	ref, ts := multiPodOutput(t, spec, runs, opts, 0, 1)
	for _, shards := range layouts {
		for _, p := range procs {
			if got, _ := multiPodOutput(t, spec, runs, opts, shards, p); got != ref {
				t.Errorf("shards=%d GOMAXPROCS=%d diverged from serial layout (ref %d bytes, got %d bytes)",
					shards, p, len(ref), len(got))
			}
		}
	}
	return ts
}

// TestMultiPodLockstep256 is the acceptance-criteria run: a 256-worker
// (8 pods × 32 workers) capture, byte-identical TraceSet, flow CSV and
// telemetry snapshot between the serial layout and the fully sharded
// layout at GOMAXPROCS ∈ {1, 2, 8}.
func TestMultiPodLockstep256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-worker capture in -short mode")
	}
	spec := ClusterSpec{
		Topology: "star", Workers: 32, Pods: 8, Seed: 7,
	}
	runs := make([]workload.RunSpec, 8)
	for i := range runs {
		runs[i] = workload.RunSpec{Profile: "terasort", InputBytes: 32 << 20}
	}
	ts := lockstep(t, spec, runs, CaptureOpts{}, []int{-1}, []int{1, 2, 8})
	if len(ts.Runs) != 8 {
		t.Fatalf("got %d runs, want 8", len(ts.Runs))
	}
	if ts.BackgroundHosts != 256 {
		t.Fatalf("background hosts %d, want 256", ts.BackgroundHosts)
	}
	if ts.Stats.InterPodTransfers != 8 {
		t.Fatalf("ring cross-pod transfers %d, want 8", ts.Stats.InterPodTransfers)
	}
	if ts.Stats.InterPodBytes <= 0 {
		t.Fatal("no inter-pod bytes crossed the fabric")
	}
}

// TestMultiPodLockstepChaos covers the fault paths on both transports:
// a permanent worker failure and a transient node crash on different
// pods — still byte-identical across layouts, with ring copies landing.
func TestMultiPodLockstepChaos(t *testing.T) {
	for _, transport := range []string{"fluid", "tcp"} {
		spec := ClusterSpec{
			Topology: "star", Workers: 8, Pods: 4,
			Transport: transport, Seed: 11,
		}
		runs := []workload.RunSpec{
			{Profile: "terasort", InputBytes: 16 << 20},
			{Profile: "wordcount", InputBytes: 16 << 20},
			{Profile: "terasort", InputBytes: 8 << 20},
			{Profile: "wordcount", InputBytes: 8 << 20},
		}
		opts := CaptureOpts{
			StrictChecks: true,
			// Worker 9 = pod 1 / local 1; crash worker 20 = pod 2 / local 4.
			Failures: []FailureSpec{{WorkerIndex: 9, AtNs: 3e9}},
			Faults: faults.Schedule{Faults: []faults.Fault{
				{Kind: faults.NodeCrash, Worker: 20, AtNs: 2e9, DurationNs: 40e9},
			}},
		}
		ts := lockstep(t, spec, runs, opts, []int{-1, 2}, []int{2})
		if ts.Stats.InterPodTransfers == 0 {
			t.Errorf("%s: no ring copy completed", transport)
		}
	}
}

// TestMultiPodCopySourceCrash: a node crash on the ring copy's source
// (Workers()[0] of pod 0) spans the copy, from mid-job until well after
// the session's work ends, so the 0→1 transfer aborts while the 1→0 copy
// lands; the session still converges, byte-identical across layouts,
// with the abort on the books.
func TestMultiPodCopySourceCrash(t *testing.T) {
	spec := ClusterSpec{Topology: "star", Workers: 4, Pods: 2, Seed: 5}
	runs := []workload.RunSpec{
		{Profile: "terasort", InputBytes: 8 << 20},
		{Profile: "terasort", InputBytes: 8 << 20},
	}
	opts := CaptureOpts{
		StrictChecks: true,
		Faults: faults.Schedule{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, Worker: 0, AtNs: 1e9, DurationNs: 60e9},
		}},
	}
	ts := lockstep(t, spec, runs, opts, []int{-1, 2}, []int{2})
	if ts.Stats.InterPodAborted < 1 {
		t.Fatalf("aborted %d, want the crashed source's copy", ts.Stats.InterPodAborted)
	}
	if ts.Stats.InterPodTransfers != 1 {
		t.Fatalf("transfers %d, want the 1→0 copy alone", ts.Stats.InterPodTransfers)
	}
}

// TestMultiPodValidation exercises the option/spec error paths. The spec
// checks are shared by every pod count, so single-pod rows reject the
// same values multi-pod rows do.
func TestMultiPodValidation(t *testing.T) {
	base := ClusterSpec{Topology: "star", Workers: 4, Pods: 2, Seed: 1}
	single := base
	single.Pods = 1
	with := func(spec ClusterSpec, edit func(*ClusterSpec)) ClusterSpec {
		edit(&spec)
		return spec
	}
	links := telemetry.New()
	links.EnableLinkTimeline()
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 4 << 20}}
	cases := []struct {
		name string
		spec ClusterSpec
		opts CaptureOpts
		want string // substring of the error
	}{
		{"shards > pods", with(base, func(s *ClusterSpec) { s.Shards = 3 }), CaptureOpts{}, "shards 3"},
		{"single-pod shards > pods", with(single, func(s *ClusterSpec) { s.Shards = 3 }), CaptureOpts{}, "shards 3"},
		{"link fault in multi-pod capture", base, CaptureOpts{
			Faults: faults.Schedule{Faults: []faults.Fault{{Kind: faults.LinkDown, Link: 1, AtNs: 1, DurationNs: 10}}},
		}, "pod-local link"},
		{"link timeline in multi-pod capture", base, CaptureOpts{Telemetry: links}, "timeline"},
		{"out-of-range global worker index", base, CaptureOpts{
			Failures: []FailureSpec{{WorkerIndex: 8, AtNs: 1}},
		}, "worker index 8"},
	}
	for _, tc := range cases {
		_, _, err := CaptureWith(tc.spec, runs, tc.opts)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestResolveShards(t *testing.T) {
	cases := []struct {
		pods, shards, want int
		ok                 bool
	}{
		{4, 0, 1, true},
		{4, -1, 4, true},
		{4, 2, 2, true},
		{4, 4, 4, true},
		{4, 5, 0, false},
		{4, -2, 0, false},
	}
	for _, c := range cases {
		got, err := resolveShards(c.pods, c.shards)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("resolveShards(%d, %d) = %d, %v; want %d, ok=%v", c.pods, c.shards, got, err, c.want, c.ok)
		}
	}
}
