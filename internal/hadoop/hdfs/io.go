package hdfs

import (
	"fmt"

	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/telemetry"
)

// File returns the block list of a stored file. Reading a file whose
// writer has not finished returns ErrIncomplete, as opening a lease-held
// file does on a real cluster.
func (fs *FS) File(path string) ([]Block, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if !f.complete {
		return nil, fmt.Errorf("%w: %s", ErrIncomplete, path)
	}
	out := make([]Block, len(f.blocks))
	copy(out, f.blocks)
	return out, nil
}

// Exists reports whether path is in the namespace.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// WhenComplete runs fn once path's writer has finished — immediately if
// the file is already complete. It returns ErrNotFound for unknown paths.
func (fs *FS) WhenComplete(path string, fn func()) error {
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if f.complete {
		fn()
		return nil
	}
	f.waiters = append(f.waiters, fn)
	return nil
}

// Delete removes a file from the namespace (replica space is not modelled).
func (fs *FS) Delete(path string) {
	delete(fs.files, path)
}

// WriteFile streams size bytes from client into HDFS as path, replicating
// each block through a write pipeline. replication <= 0 uses the
// filesystem default. done runs when the last block's pipeline drains.
//
// Blocks are written sequentially (as a single DFSOutputStream does);
// within a block all pipeline hops stream concurrently (cut-through).
func (fs *FS) WriteFile(client netsim.NodeID, path string, size int64, replication int, label string, done func([]Block)) error {
	if fs.Exists(path) {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	if size <= 0 {
		return fmt.Errorf("hdfs: write %s: non-positive size %d", path, size)
	}
	if replication <= 0 {
		replication = fs.cfg.Replication
	}
	if replication > len(fs.datanodes) {
		return fmt.Errorf("hdfs: replication %d exceeds %d datanodes", replication, len(fs.datanodes))
	}
	// Reserve the namespace entry up front so concurrent writers collide.
	f := &file{path: path}
	fs.files[path] = f

	nblocks := int((size + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize)
	var writeBlock func(i int)
	writeBlock = func(i int) {
		if i == nblocks {
			f.complete = true
			if done != nil {
				blocks := make([]Block, len(f.blocks))
				copy(blocks, f.blocks)
				done(blocks)
			}
			waiters := f.waiters
			f.waiters = nil
			for _, w := range waiters {
				w()
			}
			return
		}
		bsize := fs.cfg.BlockSize
		if rem := size - int64(i)*fs.cfg.BlockSize; rem < bsize {
			bsize = rem
		}
		// addBlock RPC to the NameNode.
		fs.control(client, fs.namenode, flows.PortNameNodeRPC, label+"/addBlock")

		pipeline := fs.choosePipeline(client, replication)
		if len(pipeline) == 0 {
			panic(fmt.Sprintf("hdfs: no live datanodes to write %s", path))
		}
		blk := Block{ID: fs.nextBlock, Size: bsize, Replicas: pipeline}
		fs.nextBlock++
		pipeStart := fs.eng.Now()

		// One flow per pipeline hop, all streaming concurrently. A hop
		// torn down by a fault goes through pipeline recovery: resume the
		// remaining bytes into the same DataNode when it survived (a link
		// fault), restream the whole block into a replacement node when it
		// died, and after maxPipelineRetries attempts drop the replica as
		// under-replicated — but never below one replica while a live
		// source remains.
		remainingHops := len(pipeline)
		hopFinished := func() {
			remainingHops--
			if remainingHops == 0 {
				if len(blk.Replicas) == 0 {
					fs.LostBlocks++
					fs.metrics.LostBlocks.Inc()
				}
				f.blocks = append(f.blocks, blk)
				fs.BytesWritten += bsize
				fs.metrics.BlocksWritten.Inc()
				fs.metrics.BytesWritten.Add(bsize)
				fs.tracer.Add(telemetry.Span{
					Cat: "hdfs", Name: "pipeline", Attr: fmt.Sprintf("%s#%d", path, blk.ID),
					StartNs: int64(pipeStart), EndNs: int64(fs.eng.Now()),
				})
				writeBlock(i + 1)
			}
		}

		var runHop func(src, dst netsim.NodeID, sz int64, attempt int)
		var recoverHop func(src, dst netsim.NodeID, remaining int64, attempt int)

		runHop = func(src, dst netsim.NodeID, sz int64, attempt int) {
			lbl := label + "/hdfsWrite"
			if attempt > 0 {
				lbl = label + "/hdfsWrite-recovery"
			}
			_, err := fs.net.StartFlow(netsim.FlowSpec{
				Src:        src,
				Dst:        dst,
				SrcPort:    flows.EphemeralPort(fs.rng),
				DstPort:    flows.PortDataNodeData,
				SizeBytes:  sz,
				Label:      lbl,
				OnComplete: func(netsim.Flow) { hopFinished() },
				OnAbort: func(fl netsim.Flow) {
					rem := sz - fl.Transferred
					if rem <= 0 {
						hopFinished()
						return
					}
					fs.eng.After(sim.Backoff(pipelineRetryBase, attempt), func() {
						recoverHop(src, dst, rem, attempt+1)
					})
				},
			})
			if err != nil {
				panic(fmt.Sprintf("hdfs: pipeline flow: %v", err))
			}
		}

		recoverHop = func(src, dst netsim.NodeID, remaining int64, attempt int) {
			dropReplica := func() {
				for ri, r := range blk.Replicas {
					if r == dst {
						blk.Replicas = append(blk.Replicas[:ri], blk.Replicas[ri+1:]...)
						break
					}
				}
				fs.UnderReplicated++
				hopFinished()
			}
			// Nearest live source: the hop's original feeder, then the
			// writing client, then any surviving replica of this block.
			newSrc := netsim.NodeID(-1)
			for _, cand := range append([]netsim.NodeID{src, client}, blk.Replicas...) {
				if cand != dst && cand >= 0 && !fs.dead[cand] {
					newSrc = cand
					break
				}
			}
			if newSrc < 0 {
				// Nothing can source the bytes: give the replica up.
				dropReplica()
				return
			}
			if attempt > maxPipelineRetries && len(blk.Replicas) > 1 {
				dropReplica()
				return
			}
			fs.PipelineRecoveries++
			fs.metrics.PipelineRecoveries.Inc()
			if !fs.dead[dst] {
				// The DataNode survived — a link fault cut the stream;
				// resume the block from where it broke.
				runHop(newSrc, dst, remaining, attempt)
				return
			}
			// Replace the dead node and restream the whole block.
			holding := make(map[netsim.NodeID]bool, len(blk.Replicas)+1)
			for _, r := range blk.Replicas {
				holding[r] = true
			}
			target := fs.randomDN(holding, nil)
			if target < 0 {
				if len(blk.Replicas) > 1 {
					dropReplica()
					return
				}
				// Sole replica with nowhere to go: wait for the fabric
				// to heal and try again (capped backoff).
				fs.eng.After(sim.Backoff(pipelineRetryBase, attempt), func() {
					recoverHop(newSrc, dst, remaining, attempt+1)
				})
				return
			}
			for ri, r := range blk.Replicas {
				if r == dst {
					blk.Replicas[ri] = target
					break
				}
			}
			runHop(newSrc, target, bsize, attempt)
		}

		prev := client
		for _, hop := range pipeline {
			runHop(prev, hop, bsize, 0)
			prev = hop
		}
	}
	writeBlock(0)
	return nil
}

// pickReplica selects the live replica a reader uses: local if
// available, then rack-local, then uniform random — the HDFS
// network-distance rule. Returns -1 when every replica is dead.
func (fs *FS) pickReplica(client netsim.NodeID, blk Block) netsim.NodeID {
	topo := fs.net.Topology()
	live := fs.liveReplicas(&blk)
	if len(live) == 0 {
		return -1
	}
	for _, r := range live {
		if r == client {
			return r
		}
	}
	var rackLocal []netsim.NodeID
	for _, r := range live {
		if topo.Rack(r) == topo.Rack(client) {
			rackLocal = append(rackLocal, r)
		}
	}
	if len(rackLocal) > 0 {
		return rackLocal[fs.rng.Intn(len(rackLocal))]
	}
	return live[fs.rng.Intn(len(live))]
}

// maxReadRetries bounds read retries before the block is declared
// unreadable (a real DFSInputStream gives up after cycling the replica
// list a few times; faults are expected to have healed long before 20
// capped backoffs elapse).
const maxReadRetries = 20

// ReadBlock streams one block to client from the best live replica. done
// runs with the chosen replica when the transfer finishes. A read torn
// down by a fault — or finding no live replica — retries against the
// current replica set with exponential backoff; a block that stays
// unreadable through every retry is unrecoverable for the caller and
// panics (supported failure experiments keep replication ≥ 2).
func (fs *FS) ReadBlock(client netsim.NodeID, blk Block, label string, done func(replica netsim.NodeID)) {
	fs.readBlockAttempt(client, blk, label, done, 0)
}

func (fs *FS) readBlockAttempt(client netsim.NodeID, blk Block, label string, done func(replica netsim.NodeID), attempt int) {
	// getBlockLocations RPC (re-issued per retry, as DFSInputStream does).
	fs.control(client, fs.namenode, flows.PortNameNodeRPC, label+"/getBlockLocations")

	retry := func() {
		if attempt >= maxReadRetries {
			panic(fmt.Sprintf("hdfs: block %d unreadable after %d retries", blk.ID, attempt))
		}
		fs.ReadRetries++
		fs.metrics.ReadRetries.Inc()
		fs.eng.After(sim.Backoff(readRetryBase, attempt), func() {
			fs.readBlockAttempt(client, blk, label, done, attempt+1)
		})
	}

	replica := fs.pickReplica(client, blk)
	if replica < 0 {
		// Every replica is currently dead; wait for one to rejoin.
		retry()
		return
	}
	if replica == client {
		fs.LocalReads++
	} else {
		fs.RemoteReads++
	}
	lbl := label + "/hdfsRead"
	if attempt > 0 {
		lbl = label + "/hdfsRead-retry"
	}
	_, err := fs.net.StartFlow(netsim.FlowSpec{
		Src:       replica,
		Dst:       client,
		SrcPort:   flows.PortDataNodeData,
		DstPort:   flows.EphemeralPort(fs.rng),
		SizeBytes: blk.Size,
		Label:     lbl,
		OnComplete: func(netsim.Flow) {
			fs.BytesRead += blk.Size
			fs.metrics.BlocksRead.Inc()
			fs.metrics.BytesRead.Add(blk.Size)
			if done != nil {
				done(replica)
			}
		},
		OnAbort: func(netsim.Flow) { retry() },
	})
	if err != nil {
		panic(fmt.Sprintf("hdfs: read flow: %v", err))
	}
}

// ReadFile streams every block of path to client sequentially and then
// runs done.
func (fs *FS) ReadFile(client netsim.NodeID, path string, label string, done func()) error {
	blocks, err := fs.File(path)
	if err != nil {
		return err
	}
	var readAt func(i int)
	readAt = func(i int) {
		if i == len(blocks) {
			if done != nil {
				done()
			}
			return
		}
		fs.ReadBlock(client, blocks[i], label, func(netsim.NodeID) { readAt(i + 1) })
	}
	readAt(0)
	return nil
}
