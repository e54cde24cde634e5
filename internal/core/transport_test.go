package core

import (
	"errors"
	"reflect"
	"testing"

	"keddah/internal/netsim"
	"keddah/internal/workload"
)

// TestClusterSpecTransportValidation: the transport name is validated at
// BuildCluster, wrapping netsim.ErrBadTransport so CLIs can map it to a
// clear user-facing error instead of a fluid fallback.
func TestClusterSpecTransportValidation(t *testing.T) {
	cases := []struct {
		name      string
		spec      ClusterSpec
		wantErr   bool
		wantBadTr bool
	}{
		{"default fluid", ClusterSpec{Workers: 4}, false, false},
		{"explicit fluid", ClusterSpec{Workers: 4, Transport: "fluid"}, false, false},
		{"tcp", ClusterSpec{Workers: 4, Transport: "tcp"}, false, false},
		{"unknown transport", ClusterSpec{Workers: 4, Transport: "udp"}, true, true},
		{"case-sensitive", ClusterSpec{Workers: 4, Transport: "Fluid"}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.BuildCluster()
			if (err != nil) != tc.wantErr {
				t.Fatalf("BuildCluster err = %v, wantErr %v", err, tc.wantErr)
			}
			if tc.wantBadTr && !errors.Is(err, netsim.ErrBadTransport) {
				t.Errorf("error %v does not wrap netsim.ErrBadTransport", err)
			}
		})
	}
}

// TestCaptureTCPDeterministic: a full TCP-mode capture session (terasort
// on 6 workers) replayed with the same seed must be byte-identical —
// every synthesised flow record, timestamp and run result.
func TestCaptureTCPDeterministic(t *testing.T) {
	spec := ClusterSpec{Workers: 6, Seed: 21, Transport: "tcp"}
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 128 << 20}}
	ts1, rr1, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ts2, rr2, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts1, ts2) {
		t.Error("TCP-mode trace sets diverged across same-seed reruns")
	}
	if !reflect.DeepEqual(rr1, rr2) {
		t.Error("TCP-mode run results diverged across same-seed reruns")
	}
}

// TestCaptureTransportSelectsModel: ClusterSpec.Transport picks the rate
// model of a capture, and an unknown name is rejected.
func TestCaptureTransportSelectsModel(t *testing.T) {
	spec := ClusterSpec{Workers: 4, Seed: 5}
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 64 << 20}}
	fluidTS, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Transport = "tcp"
	tcpTS, _, err := CaptureWith(spec, runs, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fluidTS, tcpTS) {
		t.Error("TCP-mode capture identical to fluid capture — the transport had no effect")
	}
	spec.Transport = "bogus"
	if _, _, err := CaptureWith(spec, runs, CaptureOpts{}); err == nil {
		t.Error("bogus transport accepted")
	}
}

// TestCaptureTCPStrictChecks runs a TCP-mode capture with the invariants
// layer sweeping state (including the TCP cwnd/queue bounds) throughout.
func TestCaptureTCPStrictChecks(t *testing.T) {
	spec := ClusterSpec{Workers: 6, Seed: 33, Transport: "tcp"}
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 128 << 20}}
	if _, _, err := CaptureWith(spec, runs, CaptureOpts{StrictChecks: true}); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureTCPChaos: the PR 2 chaos fault schedule composes with the
// TCP transport — reroutes, degrades and node crashes must not wedge the
// state machine.
func TestCaptureTCPChaos(t *testing.T) {
	spec := ClusterSpec{Workers: 6, Seed: 99, Transport: "tcp"}
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 256 << 20}}
	opts := CaptureOpts{Faults: chaosSchedule(), StrictChecks: true}
	ts, _, err := CaptureWith(spec, runs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Runs) == 0 {
		t.Fatal("chaos TCP capture produced no runs")
	}
}
