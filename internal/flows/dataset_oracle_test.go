package flows_test

import (
	"slices"
	"testing"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/workload"
)

// TestDatasetViewsMatchClassify is the differential oracle for the phase
// index: on a real capture (the E4-shaped golden session, plus records
// that classify as other), every view of every phase — the whole dataset
// (""), each modelled phase, other and an unknown name — must equal a
// brute-force pass that classifies each record. The check runs again on
// each phase's ByPhase sub-dataset, so ByPhase(ByPhase(p)) is covered.
func TestDatasetViewsMatchClassify(t *testing.T) {
	ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 6, Replication: 2, Seed: 7},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: 192 << 20}}, core.CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	records := append([]pcap.FlowRecord(nil), ts.Background...)
	for _, r := range ts.Runs {
		records = append(records, r.Records...)
	}
	for i := range 3 {
		records = append(records, pcap.FlowRecord{
			Key:     pcap.FlowKey{Src: pcap.HostAddr(1), Dst: pcap.HostAddr(2), SrcPort: 40000, DstPort: uint16(40001 + i)},
			FirstNs: int64(i) * 7, LastNs: int64(i)*7 + 3, Bytes: 64, Label: "other",
		})
	}
	ds := flows.NewDataset(records)
	for _, ph := range oraclePhases {
		if n := ds.Count(ph); ph != "" && ph != "bogus" && n == 0 {
			t.Fatalf("capture holds no %q records; the oracle needs every phase", ph)
		}
	}
	checkViews(t, "", ds, records)
	for _, ph := range oraclePhases {
		sub := ds.ByPhase(ph)
		checkViews(t, "ByPhase("+string(ph)+")", sub, sub.Records)
	}
}

var oraclePhases = []flows.Phase{"", flows.PhaseHDFSRead, flows.PhaseHDFSWrite,
	flows.PhaseShuffle, flows.PhaseControl, flows.PhaseOther, "bogus"}

// checkViews compares every view of ds, for every phase, with the same
// view computed by classifying each of records, which must be ds's
// records in order.
func checkViews(t *testing.T, name string, ds *flows.Dataset, records []pcap.FlowRecord) {
	t.Helper()
	if !slices.Equal(ds.Records, records) {
		t.Fatalf("%s: dataset records differ from its input", name)
	}
	for _, ph := range oraclePhases {
		var want []pcap.FlowRecord
		for _, r := range records {
			if ph == "" || flows.Classify(r) == ph {
				want = append(want, r)
			}
		}
		var volume int64
		var sizes, durs []float64
		var starts []int64
		for _, r := range want {
			volume += r.Bytes
			sizes = append(sizes, float64(r.Bytes))
			durs = append(durs, float64(r.DurationNs())/1e9)
			starts = append(starts, r.FirstNs)
		}
		slices.Sort(starts)
		var inter []float64
		for i := 1; i < len(starts); i++ {
			inter = append(inter, float64(starts[i]-starts[i-1])/1e9)
		}
		where := name + " phase " + string(ph)
		if ph == "" {
			where = name + " all phases"
		}
		if got := ds.Count(ph); got != len(want) {
			t.Errorf("%s: Count = %d, want %d", where, got, len(want))
		}
		if got := ds.Volume(ph); got != volume {
			t.Errorf("%s: Volume = %d, want %d", where, got, volume)
		}
		f, l := ds.PhaseSpan(ph)
		if wf, wl := flows.Span(want); f != wf || l != wl {
			t.Errorf("%s: PhaseSpan = [%d, %d], want [%d, %d]", where, f, l, wf, wl)
		}
		got := ds.ByPhase(ph).Records
		if ph != "" {
			// One phase keeps record order.
			if !slices.Equal(got, want) {
				t.Errorf("%s: ByPhase records differ from the classified records", where)
			}
		} else if !sameRecords(got, want) {
			t.Errorf("%s: ByPhase records are not the dataset's records", where)
		}
		for view, pair := range map[string][2][]float64{
			"Sizes":         {ds.Sizes(ph), sizes},
			"Durations":     {ds.Durations(ph), durs},
			"InterArrivals": {ds.InterArrivals(ph), inter},
		} {
			g, w := slices.Clone(pair[0]), slices.Clone(pair[1])
			slices.Sort(g)
			slices.Sort(w)
			if !slices.Equal(g, w) {
				t.Errorf("%s: %s holds %d values, not the %d classified ones", where, view, len(g), len(w))
			}
		}
	}
}

// sameRecords reports whether a and b hold the same records, counting
// repeats, in any order.
func sameRecords(a, b []pcap.FlowRecord) bool {
	if len(a) != len(b) {
		return false
	}
	n := make(map[pcap.FlowRecord]int, len(a))
	for _, r := range a {
		n[r]++
	}
	for _, r := range b {
		if n[r]--; n[r] < 0 {
			return false
		}
	}
	return true
}
