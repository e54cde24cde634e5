package hdfs

import (
	"fmt"

	"keddah/internal/flows"
	"keddah/internal/netsim"
)

// CrashDataNode marks a DataNode transiently dead. Unlike FailDataNode
// (the crash-stop model E11 uses), a crash resets every data-port
// connection the node was serving — in-flight block streams are torn
// down and go through client-side recovery — and the node may later
// rejoin via RecoverDataNode. Detection still follows
// replicationDetectionDelay: if the node rejoins first, the NameNode
// never re-replicates its blocks.
func (fs *FS) CrashDataNode(host netsim.NodeID) error {
	if !fs.isDataNode(host) {
		return fmt.Errorf("%w: %d", ErrUnknownDataNode, host)
	}
	if fs.dead[host] {
		return nil
	}
	fs.dead[host] = true
	fs.epoch[host]++
	e := fs.epoch[host]
	fs.metrics.DNCrashes.Inc()

	// The crashed process drops its TCP connections: every data-port
	// flow it was sourcing or sinking resets.
	fs.net.AbortFlowsWhere(func(s netsim.FlowSpec) bool {
		if s.Src != host && s.Dst != host {
			return false
		}
		return s.SrcPort == flows.PortDataNodeData || s.DstPort == flows.PortDataNodeData
	})

	fs.eng.After(replicationDetectionDelay, func() {
		if fs.dead[host] && fs.epoch[host] == e {
			fs.reReplicateAfter(host)
		}
	})
	return nil
}

// RecoverDataNode rejoins a dead DataNode: it re-registers with the
// NameNode, uploads a full block report sized by the replicas it still
// holds, and resumes heartbeating. Recovering a live node is a no-op.
func (fs *FS) RecoverDataNode(host netsim.NodeID) error {
	if !fs.isDataNode(host) {
		return fmt.Errorf("%w: %d", ErrUnknownDataNode, host)
	}
	if !fs.dead[host] {
		return nil
	}
	delete(fs.dead, host)
	fs.epoch[host]++
	fs.metrics.DNRejoins.Inc()

	fs.control(host, fs.namenode, flows.PortNameNodeRPC, "hdfs/register")
	if host != fs.namenode {
		_, err := fs.net.StartFlow(netsim.FlowSpec{
			Src:       host,
			Dst:       fs.namenode,
			SrcPort:   ephemeralPort(fs.rng),
			DstPort:   flows.PortNameNodeRPC,
			SizeBytes: fs.blockReportSize(host),
			Label:     "hdfs/blockReport",
		})
		if err != nil {
			panic(fmt.Sprintf("hdfs: block report flow: %v", err))
		}
	}
	fs.scheduleHeartbeat(host)
	return nil
}

// isDataNode reports whether host runs a DataNode.
func (fs *FS) isDataNode(host netsim.NodeID) bool {
	for _, dn := range fs.datanodes {
		if dn == host {
			return true
		}
	}
	return false
}

// blockReportSize models the rejoin block report: a fixed RPC envelope
// plus a per-replica entry for every block the node holds.
func (fs *FS) blockReportSize(host netsim.NodeID) int64 {
	var count int64
	for _, f := range fs.files {
		for _, blk := range f.blocks {
			for _, r := range blk.Replicas {
				if r == host {
					count++
					break
				}
			}
		}
	}
	return controlBytes + 16*count
}
