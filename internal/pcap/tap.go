package pcap

import (
	"cmp"
	"fmt"
	"slices"

	"keddah/internal/netsim"
)

// MSS is the data bytes carried per wire MTU (1500 − 40 IP/TCP overhead −
// 12 timestamps).
const MSS = 1448

// MaxPacketsPerFlow bounds synthesis cost for big flows; records beyond
// the bound carry multiple MSS worth of payload each, mimicking a
// GRO-enabled capture. Byte totals stay exact.
const MaxPacketsPerFlow = 2048

// FlowLog taps a netsim.Network for ground truth alone: one FlowRecord
// per finished flow, in completion order. It retains no netsim.Flow and
// reads no rate history, so a network observed only by flow logs records
// none (see netsim.RateTap). The pipeline stages that consume flow records
// — core.CaptureWith and core.ReplayWith — attach a FlowLog; a Capture
// embeds one for its own ground truth.
type FlowLog struct {
	truth []FlowRecord
	// offset shifts this log's node ids before address synthesis.
	// Multi-pod captures give each pod's tap a disjoint range so merged
	// traces keep globally unique 5-tuples.
	offset int
}

var _ netsim.Tap = (*FlowLog)(nil)

// NewFlowLog returns an empty ground-truth recorder.
func NewFlowLog() *FlowLog { return &FlowLog{} }

// SetHostOffset shifts every node id seen by this log by n before it
// becomes a synthetic address: pod p of a multi-pod capture uses
// n = p × hostsPerPod so the merged trace's 5-tuples stay globally
// unique. Set before any flow completes.
func (l *FlowLog) SetHostOffset(n int) {
	if n >= 0 {
		l.offset = n
	}
}

// FlowCompleted implements netsim.Tap: records the flow's ground truth.
func (l *FlowLog) FlowCompleted(f netsim.Flow) {
	// Aborted flows (fault-injection teardowns) record the bytes that
	// actually crossed the wire, not the intended size; for completed
	// flows Transferred equals SizeBytes exactly.
	l.truth = append(l.truth, FlowRecord{
		Key:     basePacket(f.Spec, l.offset).Key(),
		FirstNs: int64(f.Start),
		LastNs:  int64(f.End),
		Bytes:   f.Transferred,
		Packets: 0,
		Label:   f.Spec.Label,
	})
}

// Truth returns the ground-truth flow records in completion order. The
// slice is the log's own, not a copy: read it once the network is done
// (a flow completing later appends to the log), and do not modify it.
func (l *FlowLog) Truth() []FlowRecord { return l.truth }

// basePacket is the header every packet of a flow's train carries: the
// flow's 5-tuple, with node ids shifted by offset.
func basePacket(spec netsim.FlowSpec, offset int) Packet {
	return Packet{
		Src:     HostAddr(offset + int(spec.Src)),
		Dst:     HostAddr(offset + int(spec.Dst)),
		SrcPort: uint16(spec.SrcPort),
		DstPort: uint16(spec.DstPort),
		Proto:   ProtoTCP,
	}
}

// Capture taps a netsim.Network, synthesising packet records from
// finished flows' rate histories on top of the ground-truth records its
// embedded FlowLog keeps. It is a netsim.RateTap: attaching one makes the
// network record every flow's rate history, and a buffered Capture keeps
// every finished netsim.Flow value, history included, until Packets() is
// called. Consumers that need flow records alone attach a FlowLog
// instead. All state is owned by the single-threaded simulation loop.
//
// Packet synthesis is lazy in the buffered mode: FlowCompleted only
// keeps the finished flow, and the packet train is synthesised on the
// first Packets() call. Streaming captures synthesise eagerly, since the
// sink wants packets as they happen, and retain no flows.
type Capture struct {
	FlowLog
	packets []Packet
	// pending holds completed flows whose packet trains have not been
	// synthesised yet (buffered mode only; completion order).
	pending []netsim.Flow
	// sink, if set, receives packets instead of the in-memory buffer
	// (used to stream straight to a trace file).
	sink func(Packet) error
	err  error
	// train is the per-flow synthesis scratch buffer, reused across flows.
	train []Packet
}

var _ netsim.RateTap = (*Capture)(nil)

// NewCapture returns a Capture buffering packets in memory.
func NewCapture() *Capture {
	return &Capture{}
}

// NewStreamingCapture routes synthesised packets to sink instead of the
// in-memory buffer (ground truth is still buffered).
func NewStreamingCapture(sink func(Packet) error) *Capture {
	return &Capture{sink: sink}
}

// Err returns the first sink error encountered, if any.
func (c *Capture) Err() error { return c.err }

// ReadsRates implements netsim.RateTap: packet trains are paced across
// each flow's rate history.
func (c *Capture) ReadsRates() {}

// FlowCompleted implements netsim.Tap: records ground truth and either
// streams the flow's packet train to the sink or defers synthesis until
// Packets() is called.
func (c *Capture) FlowCompleted(f netsim.Flow) {
	c.FlowLog.FlowCompleted(f)
	if c.sink == nil {
		c.pending = append(c.pending, f)
		return
	}
	c.synthesize(f)
}

// synthesize emits the flow's packet train (SYN, paced data, FIN) to the
// sink or the in-memory buffer. The train itself is built by appendTrain
// into a reused scratch buffer.
func (c *Capture) synthesize(f netsim.Flow) {
	c.train = appendTrain(c.train[:0], f, c.offset)
	for _, p := range c.train {
		if c.err != nil {
			return
		}
		if c.sink != nil {
			if err := c.sink(p); err != nil {
				c.err = err
			}
			continue
		}
		c.packets = append(c.packets, p)
	}
}

// appendTrain appends the packet train for one finished flow to dst: a
// SYN at flow start, data records paced across the flow's rate segments
// (at most MaxPacketsPerFlow records in total), and a FIN — or RST for an aborted
// flow — at flow end. It is pure over the flow's observable state, so
// invariant checks can rebuild a train without touching the capture.
func appendTrain(dst []Packet, f netsim.Flow, offset int) []Packet {
	base := basePacket(f.Spec, offset)

	startNs := int64(f.Start)
	endNs := int64(f.End)

	// SYN opens the connection at flow start.
	syn := base
	syn.TsNs = startNs
	syn.Flags = FlagSYN
	dst = append(dst, syn)

	// Data records paced across the flow's rate segments. Aborted flows
	// pace only the bytes that made it onto the wire.
	total := f.Transferred
	if total > 0 {
		chunk := int64(MSS)
		// Leave room for the SYN and the FIN.
		if budget := int64(MaxPacketsPerFlow - 2); total/chunk > budget {
			chunk = (total/budget + MSS) / MSS * MSS
		}
		segs := f.Segments
		emitted := int64(0)
		for si, seg := range segs {
			segStart := int64(seg.Start)
			segEnd := endNs
			if si+1 < len(segs) {
				segEnd = int64(segs[si+1].Start)
			}
			segBytes := seg.RateBps * float64(segEnd-segStart) / 1e9 / 8
			if si == len(segs)-1 {
				segBytes = float64(total - emitted) // absorb rounding
			}
			toSend := int64(segBytes)
			if emitted+toSend > total {
				toSend = total - emitted
			}
			if toSend <= 0 || seg.RateBps <= 0 {
				continue
			}
			sent := int64(0)
			for sent < toSend {
				sz := chunk
				if sent+sz > toSend {
					sz = toSend - sent
				}
				// Timestamp the record at the moment its last byte left.
				off := float64(sent+sz) * 8 / seg.RateBps * 1e9
				p := base
				p.TsNs = segStart + int64(off)
				if p.TsNs > endNs {
					p.TsNs = endNs
				}
				p.Len = uint32(sz)
				p.Flags = FlagACK
				dst = append(dst, p)
				sent += sz
			}
			emitted += toSend
		}
		// Any residue from float truncation goes into one final record.
		if emitted < total {
			p := base
			p.TsNs = endNs
			p.Len = uint32(total - emitted)
			p.Flags = FlagACK
			dst = append(dst, p)
		}
	}

	// FIN closes the connection at flow end; an aborted flow is torn
	// down with RST instead.
	fin := base
	fin.TsNs = endNs
	fin.Flags = FlagFIN
	if f.Aborted {
		fin.Flags = FlagRST
	}
	return append(dst, fin)
}

// Packets returns buffered packets sorted by timestamp (stable across
// flows completing at the same instant). Deferred flows are synthesised
// here, in completion order, then cached.
func (c *Capture) Packets() []Packet {
	for _, f := range c.pending {
		c.synthesize(f)
	}
	c.pending = c.pending[:0]
	out := slices.Clone(c.packets)
	slices.SortStableFunc(out, func(a, b Packet) int { return cmp.Compare(a.TsNs, b.TsNs) })
	return out
}

// CheckTrain verifies the well-formedness of one flow's packet train:
// SYN/FIN (or RST) bracketing, a single 5-tuple throughout, positive
// bounded data lengths, and non-decreasing timestamps. It returns a
// descriptive error on the first violation.
func CheckTrain(train []Packet) error {
	if len(train) < 2 {
		return fmt.Errorf("pcap: train of %d packets cannot bracket a connection", len(train))
	}
	key := train[0].Key()
	if train[0].Flags != FlagSYN || train[0].Len != 0 {
		return fmt.Errorf("pcap: train does not open with a bare SYN (flags %#x, len %d)", train[0].Flags, train[0].Len)
	}
	last := train[len(train)-1]
	if (last.Flags != FlagFIN && last.Flags != FlagRST) || last.Len != 0 {
		return fmt.Errorf("pcap: train does not close with FIN or RST (flags %#x, len %d)", last.Flags, last.Len)
	}
	for i, p := range train {
		if p.Key() != key {
			return fmt.Errorf("pcap: train mixes 5-tuples at record %d", i)
		}
		if i > 0 && p.TsNs < train[i-1].TsNs {
			return fmt.Errorf("pcap: train timestamps regress at record %d (%d < %d)", i, p.TsNs, train[i-1].TsNs)
		}
		if i > 0 && i < len(train)-1 {
			if p.Flags != FlagACK {
				return fmt.Errorf("pcap: data record %d carries flags %#x, want ACK", i, p.Flags)
			}
			if p.Len == 0 || p.Len > MaxPacketLen {
				return fmt.Errorf("pcap: data record %d length %d outside (0, %d]", i, p.Len, MaxPacketLen)
			}
		}
	}
	return nil
}

// VerifyTrains rebuilds the packet train of every flow awaiting lazy
// synthesis — without consuming the pending queue or touching the packet
// buffer — and checks each against CheckTrain plus the flow's own ground
// truth: the SYN at flow start, the FIN/RST at flow end (RST exactly for
// aborts), data bytes summing to the bytes the flow actually moved, and
// coherent truth-record time bounds.
func (c *Capture) VerifyTrains() error {
	for _, f := range c.pending {
		train := appendTrain(nil, f, c.offset)
		if err := CheckTrain(train); err != nil {
			return fmt.Errorf("flow %d (%s): %w", f.ID, f.Spec.Label, err)
		}
		last := train[len(train)-1]
		if train[0].TsNs != int64(f.Start) || last.TsNs != int64(f.End) {
			return fmt.Errorf("pcap: flow %d train spans [%d, %d], flow spans [%d, %d]",
				f.ID, train[0].TsNs, last.TsNs, int64(f.Start), int64(f.End))
		}
		if f.Aborted != (last.Flags == FlagRST) {
			return fmt.Errorf("pcap: flow %d aborted=%v but train closes with flags %#x", f.ID, f.Aborted, last.Flags)
		}
		var data int64
		for _, p := range train[1 : len(train)-1] {
			data += int64(p.Len)
		}
		if data != f.Transferred {
			return fmt.Errorf("pcap: flow %d train carries %d data bytes, flow moved %d", f.ID, data, f.Transferred)
		}
	}
	for i, tr := range c.truth {
		if tr.FirstNs > tr.LastNs {
			return fmt.Errorf("pcap: truth record %d (%s) ends before it starts (%d > %d)", i, tr.Label, tr.FirstNs, tr.LastNs)
		}
		if tr.Bytes < 0 {
			return fmt.Errorf("pcap: truth record %d (%s) carries negative bytes %d", i, tr.Label, tr.Bytes)
		}
	}
	return nil
}
