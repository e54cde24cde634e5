package flows

import (
	"runtime"
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

// TestIsControlPortMatchesMap checks the control-port switch against the
// port set it replaced, over every port.
func TestIsControlPortMatchesMap(t *testing.T) {
	want := map[uint16]bool{
		PortDataNodeIPC:  true,
		PortNameNodeRPC:  true,
		PortNameNodeHTTP: true,
		PortRMScheduler:  true,
		PortRMTracker:    true,
		PortRMAdmin:      true,
		PortRMClient:     true,
		PortNMIPC:        true,
		PortNMHTTP:       true,
		PortJobHistory:   true,
		PortAMUmbilical:  true,
	}
	for port := 0; port <= 0xffff; port++ {
		if got := isControlPort(uint16(port)); got != want[uint16(port)] {
			t.Errorf("isControlPort(%d) = %v, want %v", port, got, want[uint16(port)])
		}
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
	first, last := ds.PhaseSpan("")
	if first != 0 || last != 45 {
		t.Errorf("span = [%d, %d], want [0, 45]", first, last)
	}
	if f, l := ds.PhaseSpan(PhaseShuffle); f != 10 || l != 45 {
		t.Errorf("shuffle span = [%d, %d], want [10, 45]", f, l)
	}
	e := NewDataset(nil)
	if f, l := e.PhaseSpan(""); f != 0 || l != 0 {
		t.Errorf("empty span = [%d, %d]", f, l)
	}
}

func TestDatasetByPhase(t *testing.T) {
	ds := testDataset()
	sub := ds.ByPhase(PhaseShuffle)
	if sub.Len() != 2 {
		t.Fatalf("ByPhase len = %d", sub.Len())
	}
	if n := sub.Count(PhaseShuffle); n != 2 {
		t.Errorf("sub-dataset shuffle count = %d, want 2", n)
	}
	if n := sub.Count(PhaseHDFSRead); n != 0 {
		t.Errorf("sub-dataset hdfs_read count = %d, want 0", n)
	}
	if n := ds.ByPhase("bogus").Len(); n != 0 {
		t.Errorf("unknown phase selected %d records", n)
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
// phase index against per-record classification: the phases' ByPhase
// sub-datasets partition the records, and each holds only records that
// classify as its phase.
func TestDatasetPhaseIndexConsistency(t *testing.T) {
	ds := testDataset()
	allPhases := append(append([]Phase{}, AllPhases...), PhaseOther)
	total := 0
	for _, ph := range allPhases {
		sub := ds.ByPhase(ph)
		total += sub.Len()
		if sub.Len() != ds.Count(ph) {
			t.Fatalf("%s: ByPhase len %d != Count %d", ph, sub.Len(), ds.Count(ph))
		}
		for i, r := range sub.Records {
			if Classify(r) != ph {
				t.Fatalf("%s: sub record %d classifies as %s", ph, i, Classify(r))
			}
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

// TestNewDatasetBytesPerFlow is the memory fence on classification:
// NewDataset keeps one exact-size phase index (4 bytes per record) and a
// one-byte scratch slot per record, so it allocates at most 8 bytes per
// record and 4 KiB besides. Storing each record's phase as a string next
// to per-phase index slices grown by append cost about 35 B/record.
func TestNewDatasetBytesPerFlow(t *testing.T) {
	const n = 60_000
	records := make([]pcap.FlowRecord, n)
	for i := range records {
		// Mostly heartbeats, as in a capture, with every phase present.
		switch i % 10 {
		case 0:
			records[i] = rec(PortShuffle, 40000, 1<<20, int64(i), int64(i)+5, "")
		case 1:
			records[i] = rec(PortDataNodeData, 40000, 1<<20, int64(i), int64(i)+5, "")
		case 2:
			records[i] = rec(40000, PortDataNodeData, 1<<20, int64(i), int64(i)+5, "")
		case 3:
			records[i] = rec(40000, 40001, 64, int64(i), int64(i)+5, "")
		default:
			records[i] = rec(40000, PortRMTracker, ControlBytes, int64(i), int64(i)+5, "")
		}
	}
	NewDataset(records)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		NewDataset(records)
	}
	runtime.ReadMemStats(&after)
	grew := (after.TotalAlloc - before.TotalAlloc) / runs
	const perRecord, fixed = 8, 4 << 10
	if grew > perRecord*n+fixed {
		t.Errorf("classifying %d records allocated %d bytes (%.1f B/record); the fence is %d B/record and %d B",
			n, grew, float64(grew)/n, perRecord, fixed)
	}
}
