package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestHostAddrRoundTrip(t *testing.T) {
	for _, h := range []int{0, 1, 255, 4095, 1 << 20} {
		a := HostAddr(h)
		if a.HostIndex() != h {
			t.Errorf("HostAddr(%d).HostIndex() = %d", h, a.HostIndex())
		}
	}
	if got := HostAddr(0).String(); got != "10.0.0.0" {
		t.Errorf("addr string = %s, want 10.0.0.0", got)
	}
	if got := HostAddr(258).String(); got != "10.0.1.2" {
		t.Errorf("addr string = %s, want 10.0.1.2", got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	pkts := []Packet{
		{TsNs: 1, Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 1000, DstPort: 50010, Len: 0, Proto: ProtoTCP, Flags: FlagSYN},
		{TsNs: 5, Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 1000, DstPort: 50010, Len: 1448, Proto: ProtoTCP, Flags: FlagACK},
		{TsNs: 9, Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 1000, DstPort: 50010, Len: 0, Proto: ProtoTCP, Flags: FlagFIN},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if got[i] != pkts[i] {
			t.Errorf("packet %d: got %+v, want %+v", i, got[i], pkts[i])
		}
	}
}

func TestTraceRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("BOGUS!!!"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad magic: err = %v, want ErrBadTrace", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("KD"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("short header: err = %v, want ErrBadTrace", err)
	}
}

func TestTraceTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.WritePacket(Packet{TsNs: 1, Len: 10})
	_ = w.Flush()
	data := buf.Bytes()[:buf.Len()-5] // chop the record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, ErrBadTrace) {
		t.Errorf("truncated record: err = %v, want ErrBadTrace", err)
	}
}

// TestTraceRejectsHugeLength is the regression for the fuzz-found bug
// where a record claiming an absurd payload length decoded silently and
// poisoned downstream byte accounting: ReadPacket and ReadAll must both
// reject it with ErrBadTrace. The same crasher input lives in
// testdata/fuzz/FuzzPcapReader as a permanent fuzz corpus entry.
func TestTraceRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.WritePacket(Packet{TsNs: 1, Len: 10, Proto: ProtoTCP, Flags: FlagACK})
	_ = w.Flush()
	data := buf.Bytes()
	// Corrupt the record's Len field (offset 8-byte header + 20) to 2 GiB.
	data[8+20], data[8+21], data[8+22], data[8+23] = 0xff, 0xff, 0xff, 0x7f

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, ErrBadTrace) {
		t.Errorf("huge length: ReadPacket err = %v, want ErrBadTrace", err)
	}

	got, err := readAll(data)
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("huge length: ReadAll err = %v, want ErrBadTrace", err)
	}
	if len(got) != 0 {
		t.Errorf("huge length: ReadAll kept %d records from a poisoned head, want 0", len(got))
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(ts int64, src, dst uint32, sp, dp uint16, ln uint32, flags uint8) bool {
		// Writers only ever produce lengths within the format's bound;
		// over-bound lengths are exercised by TestTraceRejectsHugeLength.
		p := Packet{TsNs: ts, Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp, Len: ln % (MaxPacketLen + 1), Proto: ProtoTCP, Flags: flags}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.WritePacket(p); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		q, err := r.ReadPacket()
		if err != nil {
			return false
		}
		if _, err := r.ReadPacket(); err != io.EOF {
			return false
		}
		return p == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// flowPackets builds a simple SYN/data/FIN train for one 5-tuple.
func flowPackets(startNs int64, n int, gapNs int64, size uint32) []Packet {
	base := Packet{Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 1000, DstPort: 13562, Proto: ProtoTCP}
	var out []Packet
	syn := base
	syn.TsNs = startNs
	syn.Flags = FlagSYN
	out = append(out, syn)
	for i := 0; i < n; i++ {
		p := base
		p.TsNs = startNs + int64(i+1)*gapNs
		p.Len = size
		p.Flags = FlagACK
		out = append(out, p)
	}
	fin := base
	fin.TsNs = startNs + int64(n+1)*gapNs
	fin.Flags = FlagFIN
	out = append(out, fin)
	return out
}

func TestFlowTableReassembly(t *testing.T) {
	ft := NewFlowTable(0)
	for _, p := range flowPackets(1000, 10, 100, 1448) {
		ft.Add(p)
	}
	recs := ft.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Bytes != 14480 {
		t.Errorf("bytes = %d, want 14480", r.Bytes)
	}
	if r.Packets != 12 { // SYN + 10 data + FIN
		t.Errorf("packets = %d, want 12", r.Packets)
	}
	if r.FirstNs != 1000 || r.LastNs != 1000+11*100 {
		t.Errorf("span = [%d, %d]", r.FirstNs, r.LastNs)
	}
}

func TestFlowTableFINSplitsFlows(t *testing.T) {
	ft := NewFlowTable(0)
	for _, p := range flowPackets(0, 3, 10, 100) {
		ft.Add(p)
	}
	for _, p := range flowPackets(1000, 3, 10, 100) {
		ft.Add(p)
	}
	recs := ft.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (FIN closes first)", len(recs))
	}
}

func TestFlowTableIdleTimeoutSplits(t *testing.T) {
	ft := NewFlowTable(time.Millisecond)
	base := Packet{Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 7, DstPort: 8, Proto: ProtoTCP, Flags: FlagACK, Len: 10}
	p1, p2 := base, base
	p1.TsNs = 0
	p2.TsNs = 10_000_000 // 10 ms later > 1 ms idle timeout
	ft.Add(p1)
	ft.Add(p2)
	recs := ft.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (idle split)", len(recs))
	}
}

func TestFlowTableIgnoresStrayAcks(t *testing.T) {
	ft := NewFlowTable(0)
	ft.Add(Packet{TsNs: 5, Src: HostAddr(3), Dst: HostAddr(4), SrcPort: 1, DstPort: 2, Proto: ProtoTCP, Flags: FlagACK, Len: 0})
	if recs := ft.Records(); len(recs) != 0 {
		t.Errorf("stray pure ACK opened a flow: %+v", recs)
	}
}

func TestFlowTableSortsDeterministically(t *testing.T) {
	ft := NewFlowTable(0)
	// Two flows starting at the same instant with different tuples.
	for _, sp := range []uint16{30, 10, 20} {
		ft.Add(Packet{TsNs: 100, Src: HostAddr(1), Dst: HostAddr(2), SrcPort: sp, DstPort: 9, Proto: ProtoTCP, Flags: FlagSYN})
	}
	recs := ft.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if !(recs[0].Key.SrcPort < recs[1].Key.SrcPort && recs[1].Key.SrcPort < recs[2].Key.SrcPort) {
		t.Errorf("tie-break order wrong: %v %v %v", recs[0].Key.SrcPort, recs[1].Key.SrcPort, recs[2].Key.SrcPort)
	}
}

func TestSamplerKeepsBoundariesAndEstimatesBytes(t *testing.T) {
	const n = 8
	s := NewSampler(n)
	// One flow of 800 data packets of 1000 B: true volume 800 kB.
	for _, p := range flowPackets(0, 800, 100, 1000) {
		s.Add(p)
	}
	recs := s.EstimateFlows()
	if len(recs) != 1 {
		t.Fatalf("flows = %d, want 1 (SYN/FIN preserved)", len(recs))
	}
	est := recs[0].Bytes
	// Count-based 1-in-8 sampling of 800 packets keeps exactly 100 →
	// estimate is exact for uniform packet sizes.
	if est != 800_000 {
		t.Errorf("estimated bytes = %d, want 800000", est)
	}
	if s.Kept() >= s.Seen() {
		t.Errorf("kept %d of %d — no thinning", s.Kept(), s.Seen())
	}
}

func TestSamplerOneKeepsEverything(t *testing.T) {
	s := NewSampler(1)
	for _, p := range flowPackets(0, 10, 100, 500) {
		s.Add(p)
	}
	if s.Kept() != s.Seen() {
		t.Errorf("sampler(1) dropped packets: %d of %d", s.Kept(), s.Seen())
	}
	recs := s.EstimateFlows()
	if len(recs) != 1 || recs[0].Bytes != 5000 {
		t.Errorf("recs = %+v", recs)
	}
	// Invalid factors clamp to 1.
	if NewSampler(0).n != 1 {
		t.Error("sampler(0) not clamped")
	}
}

func TestSamplerEstimationAccuracyOnRealCapture(t *testing.T) {
	// Sampled estimation of a real multi-flow capture lands within 20%
	// of the true per-phase volume.
	c := runCapturedFlows(t, 6, 20_000_000)
	truth := int64(6 * 20_000_000)
	s := NewSampler(16)
	for _, p := range c.Packets() {
		s.Add(p)
	}
	var est int64
	for _, r := range s.EstimateFlows() {
		est += r.Bytes
	}
	ratio := float64(est) / float64(truth)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("sampled volume estimate off by %.2fx (est %d, truth %d)", ratio, est, truth)
	}
}
