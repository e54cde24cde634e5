// Package pcap is the capture substrate of the toolchain: packet records,
// a compact binary trace format, and TCP-style flow reassembly. It plays
// the role tcpdump + post-processing play in the original Keddah pipeline:
// the simulated network is tapped, packets are synthesised from flow
// progress, written to a trace, and later reduced back to flow records for
// classification and modelling.
//
// Two taps share one ground-truth recorder. A FlowLog keeps flow records
// only; a Capture adds packet synthesis, which paces each flow's bytes
// across its rate history. Only a Capture makes the network record that
// history (it is a netsim.RateTap), so the stages that need flow records
// alone — capture, replay — attach a FlowLog and keep no per-flow history.
package pcap

import (
	"fmt"
)

// ProtoTCP is the only transport the Hadoop substrate uses.
const ProtoTCP = 6

// Addr is an IPv4-style 32-bit address.
type Addr uint32

// HostAddr maps a simulator node id to a stable 10.x address. Captures
// use the netsim NodeID as the index, so consumers translating addresses
// back to topology locations must treat HostIndex as a node id.
func HostAddr(host int) Addr {
	return Addr(0x0A_00_00_00 | uint32(host&0x00FF_FFFF))
}

// HostIndex recovers the host index from a HostAddr-assigned address.
func (a Addr) HostIndex() int { return int(uint32(a) & 0x00FF_FFFF) }

// String renders dotted-quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Packet is one captured record. Timestamps are nanoseconds of simulated
// time. Len is the payload byte count carried by the record; with
// GRO-style aggregation one record may represent several wire MTUs.
type Packet struct {
	TsNs    int64
	Src     Addr
	Dst     Addr
	SrcPort uint16
	DstPort uint16
	Len     uint32
	Proto   uint8
	// Flags uses TCP-style bits (SYN=0x02, FIN=0x01, ACK=0x10) so flow
	// reassembly can detect boundaries.
	Flags uint8
}

// TCP flag bits used by the synthesiser and flow table.
const (
	FlagFIN = 0x01
	FlagSYN = 0x02
	FlagRST = 0x04
	FlagACK = 0x10
)

// FlowKey is the classic 5-tuple.
type FlowKey struct {
	Src     Addr
	Dst     Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Key extracts the packet's 5-tuple.
func (p Packet) Key() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// FlowRecord is a reassembled unidirectional flow.
type FlowRecord struct {
	Key     FlowKey
	FirstNs int64
	LastNs  int64
	Bytes   int64
	Packets int64
	// Label is ground truth carried by simulator-side captures; empty
	// when the record was reconstructed purely from packets.
	Label string
}

// DurationNs returns the flow's active duration in nanoseconds.
func (r FlowRecord) DurationNs() int64 { return r.LastNs - r.FirstNs }
