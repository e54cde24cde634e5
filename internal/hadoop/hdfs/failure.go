package hdfs

import (
	"fmt"
	"slices"
	"sort"

	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/sim"
)

// replicationDetectionDelay is how long after a DataNode failure the
// NameNode schedules re-replication. Real HDFS waits ~10 minutes
// (dfs.namenode.heartbeat.recheck-interval); the simulator uses 5 s so
// failure experiments stay within job timescales — the traffic pattern
// (block-sized DN→DN copies) is identical, only the onset moves.
const replicationDetectionDelay sim.Time = 5_000_000_000

// ErrUnknownDataNode reports a failure injected on a non-DataNode host.
var ErrUnknownDataNode = fmt.Errorf("hdfs: unknown datanode")

// FailDataNode marks a DataNode dead: it stops heartbeating, is excluded
// from placement and replica selection, and after a detection delay the
// NameNode restores the replication factor of every block it held by
// copying from surviving replicas to fresh nodes (flows on the DataNode
// data port, labelled "hdfs/reReplication").
//
// Blocks whose only replica lived on the failed node are lost; their
// count is reported via LostBlocks.
func (fs *FS) FailDataNode(host netsim.NodeID) error {
	return fs.kill(host, false)
}

// kill is the one death path of a DataNode: it marks host dead, bumps
// its epoch (ending its heartbeat loop) and arms failure detection. A
// crash first resets every data-port connection the node was serving.
// Killing a dead node is a no-op.
func (fs *FS) kill(host netsim.NodeID, crash bool) error {
	if !fs.isDataNode(host) {
		return fmt.Errorf("%w: %d", ErrUnknownDataNode, host)
	}
	if fs.dead[host] {
		return nil
	}
	fs.dead[host] = true
	fs.epoch[host]++
	e := fs.epoch[host]
	if crash {
		fs.metrics.DNCrashes.Inc()
		// The crashed process drops its TCP connections: every data-port
		// flow it was sourcing or sinking resets.
		fs.net.AbortFlowsWhere(func(s netsim.FlowSpec) bool {
			if s.Src != host && s.Dst != host {
				return false
			}
			return s.SrcPort == flows.PortDataNodeData || s.DstPort == flows.PortDataNodeData
		})
	}

	// The epoch guard makes detection idempotent against rejoin: a node
	// recovered (and possibly re-crashed) since this failure was observed
	// is handled by its own, newer detection event.
	fs.eng.After(replicationDetectionDelay, func() {
		if fs.dead[host] && fs.epoch[host] == e {
			fs.reReplicateAfter(host)
		}
	})
	return nil
}

// isDataNode reports whether host runs a DataNode.
func (fs *FS) isDataNode(host netsim.NodeID) bool {
	return slices.Contains(fs.datanodes, host)
}

// NodeAlive reports whether a DataNode is serving.
func (fs *FS) NodeAlive(host netsim.NodeID) bool { return !fs.dead[host] }

// reReplicateAfter restores replication for every block that had a
// replica on the failed host.
func (fs *FS) reReplicateAfter(failed netsim.NodeID) {
	// Deterministic order: files by path, blocks by position.
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	for _, p := range paths {
		f := fs.files[p]
		for bi := range f.blocks {
			blk := &f.blocks[bi]
			idx := -1
			for ri, r := range blk.Replicas {
				if r == failed {
					idx = ri
					break
				}
			}
			if idx < 0 {
				continue
			}
			// Drop the dead replica.
			blk.Replicas = append(blk.Replicas[:idx], blk.Replicas[idx+1:]...)
			live := fs.liveReplicas(blk)
			if len(live) == 0 {
				fs.LostBlocks++
				fs.metrics.LostBlocks.Inc()
				continue
			}
			// Copy from a surviving replica to a fresh live node. Targets
			// of still-in-flight copies count as holding the block —
			// otherwise two overlapping failure detections could pick the
			// same target and pin a duplicate replica.
			holding := make(map[netsim.NodeID]bool, len(blk.Replicas)+1)
			for _, r := range blk.Replicas {
				holding[r] = true
			}
			for t := range fs.pendingRepl[blk] {
				holding[t] = true
			}
			target := fs.randomDN(holding, nil)
			if target < 0 {
				fs.UnderReplicated++
				continue
			}
			if fs.pendingRepl[blk] == nil {
				fs.pendingRepl[blk] = make(map[netsim.NodeID]bool, 1)
			}
			fs.pendingRepl[blk][target] = true
			src := live[fs.rng.Intn(len(live))]
			blkRef := blk
			size := blk.Size
			clearPending := func() {
				delete(fs.pendingRepl[blkRef], target)
				if len(fs.pendingRepl[blkRef]) == 0 {
					delete(fs.pendingRepl, blkRef)
				}
			}
			_, err := fs.net.StartFlow(netsim.FlowSpec{
				Src:       src,
				Dst:       target,
				SrcPort:   flows.EphemeralPort(fs.rng),
				DstPort:   flows.PortDataNodeData,
				SizeBytes: size,
				Label:     "hdfs/reReplication",
				OnComplete: func(netsim.Flow) {
					clearPending()
					blkRef.Replicas = append(blkRef.Replicas, target)
					fs.ReReplicatedBytes += size
					fs.ReReplicatedBlocks++
					fs.metrics.ReReplicatedBlocks.Inc()
					fs.metrics.ReReplicatedBytes.Add(size)
				},
				// A copy torn down by a fault (source or target crash)
				// leaves the block under-replicated; a later detection may
				// retry. Either way the target is no longer pending.
				OnAbort: func(netsim.Flow) { clearPending() },
			})
			if err != nil {
				panic(fmt.Sprintf("hdfs: re-replication flow: %v", err))
			}
		}
	}
}

// liveReplicas filters a block's replica set to serving DataNodes.
func (fs *FS) liveReplicas(blk *Block) []netsim.NodeID {
	var out []netsim.NodeID
	for _, r := range blk.Replicas {
		if !fs.dead[r] {
			out = append(out, r)
		}
	}
	return out
}
