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
	return fs.kill(host, true)
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
			SrcPort:   flows.EphemeralPort(fs.rng),
			DstPort:   flows.PortNameNodeRPC,
			SizeBytes: fs.blockReportSize(host),
			Label:     "hdfs/blockReport",
		})
		if err != nil {
			panic(fmt.Sprintf("hdfs: block report flow: %v", err))
		}
	}
	fs.startHeartbeat(host)
	return nil
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
	return flows.ControlBytes + 16*count
}
