package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"keddah/internal/workload"
)

// TestTruthIndependentOfRateHistory: captures and replays reduce flow
// records alone, so whether their networks record per-flow rate history
// must never show in what they return. Under both transports, with
// StrictChecks off and on, and for a single-pod and a two-pod capture,
// the TraceSet JSON and the replay's truth records (replaying the
// captured corpus) must be byte-identical whether or not a packet capture
// is attached beside every truth log.
func TestTruthIndependentOfRateHistory(t *testing.T) {
	runs := []workload.RunSpec{
		{Profile: "terasort", InputBytes: 128 << 20},
		{Profile: "wordcount", InputBytes: 64 << 20},
	}
	session := func(t *testing.T, spec ClusterSpec, strict, packets bool) (capture, replay []byte) {
		t.Helper()
		alsoCapturePackets = packets
		defer func() { alsoCapturePackets = false }()
		ts, _, err := CaptureWith(spec, runs, CaptureOpts{StrictChecks: strict})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if len(ts.Runs) != len(runs) {
			t.Fatalf("captured %d runs, want %d", len(ts.Runs), len(runs))
		}
		var records []byte
		for _, r := range ts.Runs {
			recs, end, err := ReplayWith(ScheduleFromRecords(r.Records), ClusterSpec{Workers: spec.Workers, Transport: spec.Transport}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(r.Records) {
				t.Fatalf("replayed %d of %d records", len(recs), len(r.Records))
			}
			b, err := json.Marshal(struct {
				End     int64
				Records any
			}{int64(end), recs})
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, b...)
		}
		return buf.Bytes(), records
	}
	for _, transport := range []string{"fluid", "tcp"} {
		for _, pods := range []int{1, 2} {
			for _, strict := range []bool{false, true} {
				name := transport
				if pods > 1 {
					name += "/multipod"
				}
				if strict {
					name += "/strict"
				}
				t.Run(name, func(t *testing.T) {
					spec := ClusterSpec{Workers: 6, Seed: 13, Transport: transport, Pods: pods}
					capBare, replayBare := session(t, spec, strict, false)
					capPkts, replayPkts := session(t, spec, strict, true)
					if !bytes.Equal(capBare, capPkts) {
						t.Error("attaching a packet capture changed the TraceSet JSON")
					}
					if !bytes.Equal(replayBare, replayPkts) {
						t.Error("attaching a packet capture changed the replay's truth records")
					}
				})
			}
		}
	}
}
