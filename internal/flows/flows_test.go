package flows

import (
	"slices"
	"testing"

	"keddah/internal/pcap"
	"keddah/internal/stats"
)

func rec(srcPort, dstPort uint16, bytes int64, firstNs, lastNs int64, label string) pcap.FlowRecord {
	return pcap.FlowRecord{
		Key: pcap.FlowKey{
			Src: pcap.HostAddr(1), Dst: pcap.HostAddr(2),
			SrcPort: srcPort, DstPort: dstPort, Proto: pcap.ProtoTCP,
		},
		Bytes: bytes, FirstNs: firstNs, LastNs: lastNs, Label: label,
	}
}

func TestClassifyPortMap(t *testing.T) {
	cases := []struct {
		name string
		r    pcap.FlowRecord
		want Phase
	}{
		{"hdfs read (src 50010)", rec(PortDataNodeData, 40000, 1, 0, 1, ""), PhaseHDFSRead},
		{"hdfs write (dst 50010)", rec(40000, PortDataNodeData, 1, 0, 1, ""), PhaseHDFSWrite},
		{"shuffle src", rec(PortShuffle, 40000, 1, 0, 1, ""), PhaseShuffle},
		{"shuffle dst", rec(40000, PortShuffle, 1, 0, 1, ""), PhaseShuffle},
		{"nn rpc", rec(40000, PortNameNodeRPC, 1, 0, 1, ""), PhaseControl},
		{"rm tracker", rec(40000, PortRMTracker, 1, 0, 1, ""), PhaseControl},
		{"rm scheduler", rec(40000, PortRMScheduler, 1, 0, 1, ""), PhaseControl},
		{"am umbilical", rec(40000, PortAMUmbilical, 1, 0, 1, ""), PhaseControl},
		{"unknown", rec(40000, 40001, 1, 0, 1, ""), PhaseOther},
	}
	for _, c := range cases {
		if got := Classify(c.r); got != c.want {
			t.Errorf("%s: classified %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClassifyShuffleBeatsControl(t *testing.T) {
	// A flow from the shuffle port to an RPC port (contrived) must
	// classify as shuffle — the shuffle rule is checked first.
	r := rec(PortShuffle, PortNameNodeRPC, 1, 0, 1, "")
	if got := Classify(r); got != PhaseShuffle {
		t.Errorf("got %s, want shuffle", got)
	}
}

func testDataset() *Dataset {
	return NewDataset([]pcap.FlowRecord{
		rec(PortDataNodeData, 40000, 100, 0, 10, "job1/read"),
		rec(40001, PortDataNodeData, 200, 5, 20, "job1/write"),
		rec(PortShuffle, 40002, 300, 10, 30, "job1/shuffle"),
		rec(PortShuffle, 40003, 500, 20, 45, "job1/shuffle"),
		rec(40004, PortRMTracker, 10, 2, 3, "yarn/hb"),
	})
}

func TestDatasetAggregation(t *testing.T) {
	ds := testDataset()
	if ds.Len() != 5 {
		t.Fatalf("len = %d", ds.Len())
	}
	if v := ds.Volume(PhaseShuffle); v != 800 {
		t.Errorf("shuffle volume = %d, want 800", v)
	}
	if v := ds.Volume(""); v != 1110 {
		t.Errorf("total volume = %d, want 1110", v)
	}
	if n := ds.Count(PhaseShuffle); n != 2 {
		t.Errorf("shuffle count = %d, want 2", n)
	}
	if n := ds.Count(""); n != 5 {
		t.Errorf("total count = %d", n)
	}
	sizes := ds.Sizes(PhaseShuffle)
	if len(sizes) != 2 || sizes[0] != 300 || sizes[1] != 500 {
		t.Errorf("shuffle sizes = %v", sizes)
	}
	durs := ds.Durations(PhaseHDFSRead)
	if len(durs) != 1 || durs[0] != 10e-9 {
		t.Errorf("read durations = %v", durs)
	}
	if v := ds.Volume(PhaseControl); v != 10 {
		t.Errorf("control volume = %d", v)
	}
}

func TestDatasetInterArrivals(t *testing.T) {
	ds := testDataset()
	ia := ds.InterArrivals(PhaseShuffle)
	if len(ia) != 1 {
		t.Fatalf("inter-arrivals = %v", ia)
	}
	if ia[0] != 10e-9 {
		t.Errorf("gap = %v, want 10ns in seconds", ia[0])
	}
	if got := ds.InterArrivals(PhaseControl); got != nil {
		t.Errorf("single flow inter-arrivals = %v, want nil", got)
	}
}

func TestDatasetSpan(t *testing.T) {
	ds := testDataset()
	first, last := ds.Span()
	if first != 0 || last != 45 {
		t.Errorf("span = [%d, %d], want [0, 45]", first, last)
	}
	e := NewDataset(nil)
	if f, l := e.Span(); f != 0 || l != 0 {
		t.Errorf("empty span = [%d, %d]", f, l)
	}
}

func TestDatasetFilterAndByPhase(t *testing.T) {
	ds := testDataset()
	sub := ds.ByPhase(PhaseShuffle)
	if sub.Len() != 2 {
		t.Fatalf("ByPhase len = %d", sub.Len())
	}
	big := ds.Filter(func(r pcap.FlowRecord, _ Phase) bool { return r.Bytes >= 200 })
	if big.Len() != 3 {
		t.Errorf("Filter len = %d, want 3", big.Len())
	}
}

func TestGroupByJob(t *testing.T) {
	groups := GroupByJob(testDataset().Records)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (job1, yarn)", len(groups))
	}
	if len(groups["job1"]) != 4 {
		t.Errorf("job1 flows = %d, want 4", len(groups["job1"]))
	}
	if len(groups["yarn"]) != 1 {
		t.Errorf("yarn flows = %d, want 1", len(groups["yarn"]))
	}
	keys := JobKeys(groups)
	if len(keys) != 2 || keys[0] != "job1" || keys[1] != "yarn" {
		t.Errorf("keys = %v", keys)
	}
}

func TestGroupByJobUnlabelled(t *testing.T) {
	groups := GroupByJob([]pcap.FlowRecord{rec(1, 2, 5, 0, 1, "")})
	if len(groups[""]) != 1 {
		t.Error("unlabelled records must land in the empty bucket")
	}
	if keys := JobKeys(groups); len(keys) != 0 {
		t.Errorf("JobKeys included the empty bucket: %v", keys)
	}
}

// TestDatasetPhaseIndexConsistency cross-checks the construction-time
// phase index against per-record classification: ByPhase and Filter must
// agree with classifying every record directly, and the cached phases
// must survive through derived datasets without re-classification.
func TestDatasetPhaseIndexConsistency(t *testing.T) {
	ds := testDataset()
	for i, r := range ds.Records {
		if got, want := ds.Phase(i), Classify(r); got != want {
			t.Fatalf("record %d: cached phase %s, want %s", i, got, want)
		}
	}
	allPhases := append(append([]Phase{}, AllPhases...), PhaseOther)
	total := 0
	for _, ph := range allPhases {
		sub := ds.ByPhase(ph)
		total += sub.Len()
		if sub.Len() != ds.Count(ph) {
			t.Fatalf("%s: ByPhase len %d != Count %d", ph, sub.Len(), ds.Count(ph))
		}
		for i, r := range sub.Records {
			if sub.Phase(i) != ph {
				t.Fatalf("%s: sub record %d cached phase %s", ph, i, sub.Phase(i))
			}
			if Classify(r) != ph {
				t.Fatalf("%s: sub record %d classifies as %s", ph, i, Classify(r))
			}
		}
		// ByPhase must agree with the equivalent Filter.
		filtered := ds.Filter(func(_ pcap.FlowRecord, p Phase) bool { return p == ph })
		if filtered.Len() != sub.Len() {
			t.Fatalf("%s: Filter len %d != ByPhase len %d", ph, filtered.Len(), sub.Len())
		}
	}
	if total != ds.Len() {
		t.Fatalf("phases partition %d of %d records", total, ds.Len())
	}
}

func TestDatasetSeriesExactValues(t *testing.T) {
	ds := testDataset()
	durs := ds.Durations(PhaseShuffle)
	if len(durs) != 2 || durs[0] != 20e-9 || durs[1] != 25e-9 {
		t.Fatalf("shuffle durations = %v", durs)
	}
	inter := ds.InterArrivals("")
	// Starts 0,5,10,20,2 → sorted 0,2,5,10,20 → gaps 2,3,5,10 ns.
	want := []float64{2e-9, 3e-9, 5e-9, 10e-9}
	if len(inter) != len(want) {
		t.Fatalf("inter-arrivals = %v", inter)
	}
	for i := range want {
		if inter[i] != want[i] {
			t.Fatalf("inter-arrivals = %v, want %v", inter, want)
		}
	}
	if got := ds.InterArrivals(PhaseControl); got != nil {
		t.Fatalf("single-flow phase inter-arrivals = %v, want nil", got)
	}
	if got := ds.Sizes(PhaseOther); got != nil {
		t.Fatalf("empty phase sizes = %v, want nil", got)
	}
}

func TestDatasetSamplesSorted(t *testing.T) {
	ds := testDataset()
	for _, ph := range []Phase{"", PhaseShuffle, PhaseHDFSRead} {
		for name, s := range map[string]*stats.Sample{
			"size":     ds.SizeSample(ph),
			"duration": ds.DurationSample(ph),
			"inter":    ds.InterArrivalSample(ph),
		} {
			if !slices.IsSorted(s.Values()) {
				t.Fatalf("%s/%s sample not sorted: %v", ph, name, s.Values())
			}
		}
	}
	s := ds.SizeSample(PhaseShuffle)
	if s.Len() != 2 || s.Min() != 300 || s.Max() != 500 || s.Mean() != 400 {
		t.Fatalf("shuffle size sample: len=%d min=%v max=%v mean=%v",
			s.Len(), s.Min(), s.Max(), s.Mean())
	}
}
