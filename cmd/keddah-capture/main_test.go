package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"keddah/internal/core"
	"keddah/internal/pcap"
	"keddah/internal/workload"
)

// TestPacketDigests fences the packet bytes a capture synthesises from
// per-flow rate histories, under both transports: the buffered
// Capture.Packets() output of a core.CaptureWith session (timestamp-
// sorted, re-encoded through the trace writer) and the streaming trace
// file -pcap writes from its session (completion order). Both must match
// digests recorded before rate history became tap-driven.
func TestPacketDigests(t *testing.T) {
	runs := []workload.RunSpec{{Profile: "terasort", InputBytes: 256 << 20}}
	cases := []struct {
		transport string
		buffered  string
		streamed  string
	}{
		{"fluid",
			"2fcfea44575e123d2765a523b67a79fab4300c6e8bc929eb695c01e650101933",
			"e47c3e8b69d6e9ab1e995b302ecea5bead699295700b1467b6919ace6eb2e556"},
		{"tcp",
			"c1e3f3f54e85ee0fded55312c3b9fae7f2912dee8aa6bc81e4895e6d88fd0cdc",
			"28def91ef20ecb4bd8426cf6f28db85df4223c5ecaee688c4644c6ef7b51b711"},
	}
	for _, tc := range cases {
		t.Run(tc.transport, func(t *testing.T) {
			spec := core.ClusterSpec{Workers: 8, Seed: 3, Transport: tc.transport}

			packets := pcap.NewCapture()
			if _, _, err := core.CaptureWith(spec, runs, core.CaptureOpts{Packets: packets}); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			w, err := pcap.NewWriter(h)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range packets.Packets() {
				if err := w.WritePacket(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.buffered {
				t.Errorf("buffered packets (%d records) digest %s, want %s", w.Count(), got, tc.buffered)
			}

			path := filepath.Join(t.TempDir(), "packets.kdh")
			if _, _, err := capture(spec, runs, core.CaptureOpts{}, path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.streamed {
				t.Errorf("streamed trace (%d bytes) digest %s, want %s", len(raw), got, tc.streamed)
			}
		})
	}
}

// TestPacketsFollowWorkerFailure: with a worker failure scheduled, the
// -pcap trace must hold the failed session's packets, not a healthy
// one's. Every re-replication flow the trace set records must reassemble
// from the packet trace under the same 5-tuple.
func TestPacketsFollowWorkerFailure(t *testing.T) {
	spec := core.ClusterSpec{Workers: 8, Seed: 3}
	runs := []workload.RunSpec{{Profile: "sort", InputBytes: 512 << 20, JobName: "sort-run0", InputPath: "/data/sort"}}
	failures := []core.FailureSpec{{WorkerIndex: 2, AtNs: 8_000_000_000}}
	path := filepath.Join(t.TempDir(), "packets.kdh")
	ts, _, err := capture(spec, runs, core.CaptureOpts{Failures: failures}, path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	packets, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	table := pcap.NewFlowTable(0)
	for _, p := range packets {
		table.Add(p)
	}
	reassembled := make(map[pcap.FlowKey]bool)
	for _, rec := range table.Records() {
		reassembled[rec.Key] = true
	}
	var reReplicated int
	for _, rec := range ts.Background {
		if rec.Label != "hdfs/reReplication" {
			continue
		}
		reReplicated++
		if !reassembled[rec.Key] {
			t.Errorf("re-replication flow %+v has no flow in the packet trace", rec.Key)
		}
	}
	if reReplicated == 0 {
		t.Fatal("the failure re-replicated nothing; the test needs a session that does")
	}
}
