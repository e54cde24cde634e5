// Package flows classifies reassembled flow records into Hadoop traffic
// components and provides the aggregation helpers Keddah's modelling stage
// consumes (per-phase sizes, counts, inter-arrivals, volumes).
package flows

import (
	"fmt"
	"strings"

	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/stats"
)

// Phase is a Hadoop traffic component.
type Phase string

// The four components Keddah models, plus a bucket for anything else.
const (
	PhaseHDFSRead  Phase = "hdfs_read"
	PhaseHDFSWrite Phase = "hdfs_write"
	PhaseShuffle   Phase = "shuffle"
	PhaseControl   Phase = "control"
	PhaseOther     Phase = "other"
)

// AllPhases lists the modelled components in reporting order.
var AllPhases = []Phase{PhaseHDFSRead, PhaseHDFSWrite, PhaseShuffle, PhaseControl}

// Well-known Hadoop 2.x ports (the port map Keddah's classifier relies on).
const (
	PortDataNodeData = 50010 // HDFS block data transfer
	PortDataNodeIPC  = 50020 // DataNode RPC
	PortNameNodeRPC  = 8020  // NameNode client RPC
	PortNameNodeHTTP = 50070 // NameNode web/status
	PortShuffle      = 13562 // MapReduce ShuffleHandler (HTTP)
	PortRMScheduler  = 8030  // YARN RM applications/scheduler RPC
	PortRMTracker    = 8031  // YARN RM resource tracker (NM heartbeats)
	PortRMAdmin      = 8033  // YARN RM admin RPC
	PortRMClient     = 8032  // YARN RM client RPC
	PortNMIPC        = 8040  // NodeManager localizer IPC
	PortNMHTTP       = 8042  // NodeManager web/status
	PortJobHistory   = 10020 // MapReduce job history server
	PortAMUmbilical  = 30022 // task ↔ ApplicationMaster umbilical (simulated convention)
)

// The client side of a connection takes a port from Linux's default
// ephemeral range, [EphemeralPortLo, EphemeralPortLo+EphemeralPorts) =
// [32768, 61000). ControlBytes is the size of one daemon RPC exchange.
const (
	EphemeralPortLo = 32768
	EphemeralPorts  = 28232
	ControlBytes    = 512
)

// EphemeralPort draws a client-side port.
func EphemeralPort(rng *stats.RNG) int { return EphemeralPortLo + rng.Intn(EphemeralPorts) }

// SendControl starts one ControlBytes RPC exchange on net from an
// ephemeral port on src to port on dst. A self-pair or a negative
// endpoint (no AM placed yet, say) sends nothing. Control flows between
// cluster hosts cannot fail, so an error is a bug and panics.
func SendControl(net *netsim.Network, rng *stats.RNG, src, dst netsim.NodeID, port int, label string) {
	if src == dst || src < 0 || dst < 0 {
		return
	}
	spec := netsim.FlowSpec{Src: src, Dst: dst, SrcPort: EphemeralPort(rng), DstPort: port, SizeBytes: ControlBytes, Label: label}
	if _, err := net.StartFlow(spec); err != nil {
		panic(fmt.Sprintf("%s: control flow: %v", label, err))
	}
}

// isControlPort reports whether port is one of the RPC, heartbeat and
// status ports Classify files under control.
func isControlPort(port uint16) bool {
	switch port {
	case PortDataNodeIPC, PortNameNodeRPC, PortNameNodeHTTP,
		PortRMScheduler, PortRMTracker, PortRMAdmin, PortRMClient,
		PortNMIPC, PortNMHTTP, PortJobHistory, PortAMUmbilical:
		return true
	}
	return false
}

// A slot numbers a phase: AllPhases in order, then PhaseOther. It is the
// order of a Dataset's phase index.
const (
	slotHDFSRead uint8 = iota
	slotHDFSWrite
	slotShuffle
	slotControl
	slotOther
	numSlots
)

var slotPhases = [numSlots]Phase{PhaseHDFSRead, PhaseHDFSWrite, PhaseShuffle, PhaseControl, PhaseOther}

// slotOf returns p's slot, and false for a phase outside the five.
func slotOf(p Phase) (uint8, bool) {
	for s, q := range slotPhases {
		if p == q {
			return uint8(s), true
		}
	}
	return 0, false
}

// Classify maps a flow record to its Hadoop traffic component using the
// well-known port conventions:
//
//   - src port 50010  → HDFS read  (DataNode streams a block to a client)
//   - dst port 50010  → HDFS write (client or upstream DataNode pushes a
//     block into a DataNode; covers pipeline replication)
//   - port 13562 on either side → shuffle (reducer fetch over HTTP)
//   - any RPC/heartbeat port → control
//   - everything else → other
func Classify(r pcap.FlowRecord) Phase { return slotPhases[classifySlot(r)] }

// classifySlot is Classify's rule, returning the phase's slot.
func classifySlot(r pcap.FlowRecord) uint8 {
	k := r.Key
	switch {
	case k.SrcPort == PortShuffle || k.DstPort == PortShuffle:
		return slotShuffle
	case k.SrcPort == PortDataNodeData:
		return slotHDFSRead
	case k.DstPort == PortDataNodeData:
		return slotHDFSWrite
	case isControlPort(k.SrcPort) || isControlPort(k.DstPort):
		return slotControl
	default:
		return slotOther
	}
}

// recoveryLabels are whole ground-truth labels produced only by
// failure-recovery machinery.
var recoveryLabels = map[string]bool{
	"hdfs/reReplication": true,
	"hdfs/register":      true,
	"hdfs/blockReport":   true,
	"yarn/nmRegister":    true,
}

// IsRecovery reports whether a ground-truth label marks retry or
// recovery traffic caused by fault injection: shuffle re-fetches, HDFS
// pipeline recovery and read retries (the "-retry"/"-recovery" label
// suffixes), NameNode re-replication, and daemon re-registration flows.
// Labels are simulator ground truth, so this is exact, not heuristic.
func IsRecovery(label string) bool {
	if recoveryLabels[label] {
		return true
	}
	return strings.HasSuffix(label, "-retry") || strings.HasSuffix(label, "-recovery")
}
