package core

import (
	"bytes"
	"testing"

	"keddah/internal/pcap"
	"keddah/internal/workload"
)

// TestTruthIndependentOfRateHistory: captures reduce flow records alone,
// so whether their networks record per-flow rate history must never show
// in the TraceSet they return. Under both transports, the TraceSet JSON
// must be byte-identical with and without a rate-reading tap:
//   - a single-pod capture, with StrictChecks off and on, is compared
//     with and without a packet capture (CaptureOpts.Packets);
//   - a two-pod capture takes no packet capture, so it is compared with
//     StrictChecks off and on, since the checker's own capture reads
//     rates.
func TestTruthIndependentOfRateHistory(t *testing.T) {
	runs := []workload.RunSpec{
		{Profile: "terasort", InputBytes: 128 << 20},
		{Profile: "wordcount", InputBytes: 64 << 20},
	}
	session := func(t *testing.T, spec ClusterSpec, opts CaptureOpts) []byte {
		t.Helper()
		ts, _, err := CaptureWith(spec, runs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.Runs) != len(runs) {
			t.Fatalf("captured %d runs, want %d", len(ts.Runs), len(runs))
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, transport := range []string{"fluid", "tcp"} {
		for _, strict := range []bool{false, true} {
			name := transport
			if strict {
				name += "/strict"
			}
			t.Run(name, func(t *testing.T) {
				spec := ClusterSpec{Workers: 6, Seed: 13, Transport: transport}
				packets := pcap.NewCapture()
				bare := session(t, spec, CaptureOpts{StrictChecks: strict})
				tapped := session(t, spec, CaptureOpts{StrictChecks: strict, Packets: packets})
				if !bytes.Equal(bare, tapped) {
					t.Error("attaching a packet capture changed the TraceSet JSON")
				}
				if len(packets.Packets()) == 0 {
					t.Error("the packet capture saw no packets")
				}
			})
		}
		t.Run(transport+"/multipod", func(t *testing.T) {
			spec := ClusterSpec{Workers: 6, Seed: 13, Transport: transport, Pods: 2}
			bare := session(t, spec, CaptureOpts{})
			checked := session(t, spec, CaptureOpts{StrictChecks: true})
			if !bytes.Equal(bare, checked) {
				t.Error("the strict checker's rate tap changed the TraceSet JSON")
			}
		})
	}
}
