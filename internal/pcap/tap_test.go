package pcap

import (
	"slices"
	"testing"
	"time"

	"keddah/internal/netsim"
	"keddah/internal/sim"
)

// runCapturedFlows pushes n flows of the given size through a small star
// network with a Capture attached.
func runCapturedFlows(t *testing.T, n int, size int64) *Capture {
	t.Helper()
	topo, err := netsim.Star(4, netsim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{})
	c := NewCapture()
	net.AddTap(c)
	h := topo.Hosts()
	for i := 0; i < n; i++ {
		src, dst := h[i%len(h)], h[(i+1)%len(h)]
		if _, err := net.StartFlow(netsim.FlowSpec{
			Src: src, Dst: dst, SrcPort: 1000 + i, DstPort: 13562,
			SizeBytes: size, Label: "job/shuffle",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCaptureByteConservation(t *testing.T) {
	const size = 10_000_000
	c := runCapturedFlows(t, 3, size)
	// Packets → flow table must reproduce the exact byte totals.
	ft := NewFlowTable(0)
	for _, p := range c.Packets() {
		ft.Add(p)
	}
	recs := ft.Records()
	if len(recs) != 3 {
		t.Fatalf("reassembled %d flows, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Bytes != size {
			t.Errorf("flow %v bytes = %d, want %d", r.Key, r.Bytes, size)
		}
	}
}

func TestCaptureTruthMatchesReassembly(t *testing.T) {
	c := runCapturedFlows(t, 5, 2_000_000)
	truth := c.Truth()
	if len(truth) != 5 {
		t.Fatalf("truth records = %d, want 5", len(truth))
	}
	ft := NewFlowTable(0)
	for _, p := range c.Packets() {
		ft.Add(p)
	}
	recs := ft.Records()
	if len(recs) != len(truth) {
		t.Fatalf("reassembled %d flows, truth has %d", len(recs), len(truth))
	}
	byKey := make(map[FlowKey]FlowRecord, len(truth))
	for _, r := range truth {
		byKey[r.Key] = r
	}
	for _, r := range recs {
		tr, ok := byKey[r.Key]
		if !ok {
			t.Errorf("reassembled flow %v missing from truth", r.Key)
			continue
		}
		if r.Bytes != tr.Bytes {
			t.Errorf("flow %v: reassembled %d bytes, truth %d", r.Key, r.Bytes, tr.Bytes)
		}
		if tr.Label != "job/shuffle" {
			t.Errorf("truth label = %q", tr.Label)
		}
		// Reassembled span must lie within the truth span.
		if r.FirstNs < tr.FirstNs || r.LastNs > tr.LastNs {
			t.Errorf("flow %v: span [%d,%d] outside truth [%d,%d]",
				r.Key, r.FirstNs, r.LastNs, tr.FirstNs, tr.LastNs)
		}
	}
}

func TestCapturePacketBoundRespected(t *testing.T) {
	c := runCapturedFlows(t, 1, 500_000_000) // 500 MB would be ~345k MTUs
	n := 0
	for _, p := range c.Packets() {
		if p.Len > 0 {
			n++
		}
	}
	if n > MaxPacketsPerFlow {
		t.Errorf("synthesised %d data records, bound is %d", n, MaxPacketsPerFlow)
	}
}

func TestCapturePacketTimestampsWithinFlow(t *testing.T) {
	c := runCapturedFlows(t, 1, 5_000_000)
	truth := c.Truth()[0]
	for _, p := range c.Packets() {
		if p.TsNs < truth.FirstNs || p.TsNs > truth.LastNs {
			t.Errorf("packet ts %d outside flow [%d, %d]", p.TsNs, truth.FirstNs, truth.LastNs)
		}
	}
}

func TestStreamingCaptureSink(t *testing.T) {
	topo, err := netsim.Star(2, netsim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{})
	var got []Packet
	c := NewStreamingCapture(func(p Packet) error {
		got = append(got, p)
		return nil
	})
	net.AddTap(c)
	h := topo.Hosts()
	if _, err := net.StartFlow(netsim.FlowSpec{Src: h[0], Dst: h[1], SrcPort: 1, DstPort: 2, SizeBytes: 1448 * 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if c.Err() != nil {
		t.Fatalf("sink err: %v", c.Err())
	}
	if len(got) != 5 { // SYN + 3 data + FIN
		t.Errorf("streamed %d packets, want 5", len(got))
	}
	if len(c.Packets()) != 0 {
		t.Error("streaming capture buffered packets")
	}
}

func TestCaptureSmallFlowExactPackets(t *testing.T) {
	c := runCapturedFlows(t, 1, 1448*2+100)
	var data []Packet
	for _, p := range c.Packets() {
		if p.Len > 0 {
			data = append(data, p)
		}
	}
	var total int64
	for _, p := range data {
		total += int64(p.Len)
	}
	if total != 1448*2+100 {
		t.Errorf("data bytes = %d, want %d", total, 1448*2+100)
	}
	if len(data) != 3 {
		t.Errorf("data packets = %d, want 3 (two MSS + remainder)", len(data))
	}
}

func TestFlowRecordDuration(t *testing.T) {
	r := FlowRecord{FirstNs: int64(time.Second), LastNs: int64(3 * time.Second)}
	if r.DurationNs() != int64(2*time.Second) {
		t.Errorf("duration = %d", r.DurationNs())
	}
}

// TestFlowLogRecordsTruthWithoutHistory: a FlowLog's records equal the
// ground truth of a Capture on an identical network, host offset
// included, and a network observed only by a FlowLog records no rate
// history — its completed flows carry no Segments.
func TestFlowLogRecordsTruthWithoutHistory(t *testing.T) {
	run := func(tap netsim.Tap) []netsim.Flow {
		topo, err := netsim.Star(4, netsim.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		net := netsim.NewNetwork(eng, topo, netsim.Config{})
		net.AddTap(tap)
		var done []netsim.Flow
		h := topo.Hosts()
		for i := 0; i < 6; i++ {
			if _, err := net.StartFlow(netsim.FlowSpec{
				Src: h[i%len(h)], Dst: h[(i+1)%len(h)], SrcPort: 1000 + i, DstPort: 13562,
				SizeBytes: int64(1+i) << 20, Label: "job/shuffle",
				OnComplete: func(f netsim.Flow) { done = append(done, f) },
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	flowLog, capture := NewFlowLog(), NewCapture()
	flowLog.SetHostOffset(40)
	capture.SetHostOffset(40)
	logged := run(flowLog)
	captured := run(capture)

	got, want := flowLog.Truth(), capture.Truth()
	if len(got) != 6 || !slices.Equal(got, want) {
		t.Fatalf("flow log truth %v, capture truth %v", got, want)
	}
	if got[0].Key.Src != HostAddr(40+int(logged[0].Spec.Src)) {
		t.Errorf("host offset not applied: %v", got[0].Key)
	}
	for i, f := range logged {
		if f.Segments != nil {
			t.Errorf("flow %d recorded rate history under a flow log", f.ID)
		}
		if len(captured[i].Segments) == 0 {
			t.Errorf("flow %d recorded no rate history under a capture", captured[i].ID)
		}
	}
}
