package coflow

import (
	"testing"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/workload"
)

func shuffleRec(job string, src, dst int, bytes int64, startNs, endNs int64) pcap.FlowRecord {
	return pcap.FlowRecord{
		Key: pcap.FlowKey{
			Src: pcap.HostAddr(src), Dst: pcap.HostAddr(dst),
			SrcPort: flows.PortShuffle, DstPort: 40000, Proto: pcap.ProtoTCP,
		},
		Bytes: bytes, FirstNs: startNs, LastNs: endNs,
		Label: job + "/shuffle",
	}
}

func TestFromRecordsBasics(t *testing.T) {
	recs := []pcap.FlowRecord{
		shuffleRec("j1", 1, 10, 100, 0, 50),
		shuffleRec("j1", 2, 10, 300, 10, 80),
		shuffleRec("j1", 1, 11, 200, 5, 60),
		shuffleRec("j2", 3, 12, 1000, 100, 200),
		// Non-shuffle flow of j1 must not join the coflow.
		{Key: pcap.FlowKey{Src: pcap.HostAddr(1), Dst: pcap.HostAddr(9), SrcPort: flows.PortDataNodeData, DstPort: 4, Proto: pcap.ProtoTCP},
			Bytes: 999, FirstNs: 0, LastNs: 1, Label: "j1/read"},
	}
	cfs := FromRecords(recs)
	if len(cfs) != 2 {
		t.Fatalf("coflows = %d, want 2", len(cfs))
	}
	j1 := cfs[0]
	if j1.Job != "j1" || j1.Width != 3 || j1.Bytes != 600 {
		t.Errorf("j1 = %+v", j1)
	}
	if j1.Senders != 2 || j1.Receivers != 2 {
		t.Errorf("j1 endpoints = %d senders, %d receivers", j1.Senders, j1.Receivers)
	}
	if j1.StartNs != 0 || j1.EndNs != 80 {
		t.Errorf("j1 span = [%d, %d]", j1.StartNs, j1.EndNs)
	}
	// Skew: largest 300 / mean 200 = 1.5.
	if j1.Skew != 1.5 {
		t.Errorf("j1 skew = %v, want 1.5", j1.Skew)
	}
	j2 := cfs[1]
	if j2.Width != 1 || j2.Skew != 1 {
		t.Errorf("j2 = %+v", j2)
	}
}

func TestBottleneckSender(t *testing.T) {
	recs := []pcap.FlowRecord{
		shuffleRec("j1", 1, 10, 100, 0, 50),
		shuffleRec("j1", 2, 10, 700, 10, 80),
		shuffleRec("j1", 2, 11, 200, 5, 60),
	}
	cfs := FromRecords(recs)
	addr, share, err := BottleneckSender(cfs[0], recs)
	if err != nil {
		t.Fatal(err)
	}
	if addr != pcap.HostAddr(2) {
		t.Errorf("bottleneck = %v, want host 2", addr)
	}
	if share != 0.9 {
		t.Errorf("share = %v, want 0.9", share)
	}
	if _, _, err := BottleneckSender(Coflow{Job: "nope"}, recs); err == nil {
		t.Error("missing job accepted")
	}
}

func TestDescribePopulation(t *testing.T) {
	cfs := []Coflow{
		{Width: 4, Bytes: 400, Skew: 1.2, StartNs: 0, EndNs: 2e9},
		{Width: 8, Bytes: 800, Skew: 1.6, StartNs: 0, EndNs: 4e9},
	}
	p, err := Describe(cfs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count != 2 {
		t.Fatalf("count = %d", p.Count)
	}
	if p.Width.Mean != 6 || p.Bytes.Mean != 600 {
		t.Errorf("means = %v, %v", p.Width.Mean, p.Bytes.Mean)
	}
	if p.Duration.Max != 4 {
		t.Errorf("max duration = %v", p.Duration.Max)
	}
}

// TestCoflowsFromRealCapture ties the analysis to an actual simulated
// job: a terasort's shuffle must appear as one coflow of width
// maps × reducers.
func TestCoflowsFromRealCapture(t *testing.T) {
	ts, results, err := core.CaptureWith(core.ClusterSpec{Workers: 8, Seed: 4},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: 512 << 20, Reducers: 3}}, core.CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []pcap.FlowRecord
	for _, r := range ts.Runs {
		recs = append(recs, r.Records...)
	}
	cfs := FromRecords(recs)
	if len(cfs) != 1 {
		t.Fatalf("coflows = %d, want 1", len(cfs))
	}
	round := results[0].Rounds[0]
	if cfs[0].Width != round.Maps*round.Reducers {
		t.Errorf("width = %d, want %d", cfs[0].Width, round.Maps*round.Reducers)
	}
	if cfs[0].Bytes != round.ShuffleBytes {
		t.Errorf("bytes = %d, want %d", cfs[0].Bytes, round.ShuffleBytes)
	}
	// Receivers are distinct hosts; two reducers may share one.
	if cfs[0].Receivers < 1 || cfs[0].Receivers > round.Reducers {
		t.Errorf("receivers = %d, want within [1, %d]", cfs[0].Receivers, round.Reducers)
	}
}
