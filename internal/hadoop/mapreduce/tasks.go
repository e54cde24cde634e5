package mapreduce

import (
	"fmt"

	"keddah/internal/flows"
	"keddah/internal/hadoop/hdfs"
	"keddah/internal/hadoop/yarn"
	"keddah/internal/netsim"
	"keddah/internal/telemetry"
)

// umbilical sends periodic task→AM progress reports while alive() holds.
// It mirrors the TaskUmbilicalProtocol status updates that show up as
// small recurring control flows in captures.
func (j *Job) umbilical(task netsim.NodeID, alive func() bool) {
	label := j.cfg.Name + "/umbilical"
	j.eng.Every(umbilicalInterval, umbilicalInterval, func() bool {
		if !alive() || j.finished {
			return false
		}
		j.control(task, j.app.AMHost(), flows.PortAMUmbilical, label)
		return true
	})
}

func (j *Job) control(src, dst netsim.NodeID, port int, label string) {
	flows.SendControl(j.net, j.rng, src, dst, port, label)
}

// runMapTask executes map i on the granted container: read the split
// from HDFS (loopback when a replica is local), compute, record the map
// output size, and — for map-only jobs — write output straight to HDFS.
// If the container's host fails mid-task the attempt is re-requested.
func (j *Job) runMapTask(i int, c *yarn.Container) {
	if j.finished {
		c.Release()
		return
	}
	host := c.Host()
	if j.result.FirstMapStart == 0 {
		j.result.FirstMapStart = j.eng.Now()
	}
	attemptStart := j.eng.Now()
	j.mapHost[i] = host
	epoch := j.mapEpoch[i]
	taskDone := false
	stale := func() bool { return j.mapEpoch[i] != epoch || c.Lost() }

	c.OnLost(func() {
		if taskDone || j.finished || j.mapEpoch[i] != epoch {
			return
		}
		// Running attempt lost: re-run this split elsewhere.
		j.mapEpoch[i]++
		j.result.ReexecutedMaps++
		j.metrics.MapsReexecuted.Inc()
		j.requestMap(i)
	})
	j.umbilical(host, func() bool { return !taskDone && !stale() })

	split := j.splits[i]
	local := false
	for _, r := range split.Replicas {
		if r == host {
			local = true
			break
		}
	}
	if local {
		j.result.LocalMaps++
	}

	j.fs.ReadBlock(host, split, j.cfg.Name, func(netsim.NodeID) {
		if stale() {
			return
		}
		j.eng.After(j.computeDelay(split.Size, j.cfg.MapCostSecPerMB), func() {
			if stale() {
				return
			}
			out := int64(float64(split.Size) * j.cfg.MapSelectivity * j.lognormalJitter(0.05))
			if out < 1 && j.cfg.MapSelectivity > 0 {
				out = 1
			}

			finish := func() {
				if stale() {
					return
				}
				if j.mapOut[i] != 0 {
					// Another attempt already committed this split;
					// this attempt's traffic was wasted.
					taskDone = true
					c.Release()
					return
				}
				taskDone = true
				j.mapOut[i] = out
				j.result.MapOutBytes += out
				j.metrics.MapsCompleted.Inc()
				j.tracer.Add(telemetry.Span{
					Cat: "mr", Name: "map", Attr: fmt.Sprintf("%s/m%d", j.cfg.Name, i),
					StartNs: int64(attemptStart), EndNs: int64(j.eng.Now()),
				})
				// Completion report to the AM.
				j.control(host, j.app.AMHost(), flows.PortAMUmbilical, j.cfg.Name+"/mapDone")
				c.Release()
				j.mapsDone++
				if j.mapsDone == len(j.splits) {
					j.result.LastMapEnd = j.eng.Now()
				}
				j.onMapCompleted(i)
			}

			if j.cfg.NumReducers == 0 {
				if j.mapOut[i] != 0 {
					finish() // another attempt won before our write started
					return
				}
				// Map-only job: commit output directly to HDFS. Attempt
				// ids keep re-executed attempts' paths distinct; only the
				// winning attempt's bytes count as job output.
				j.attemptSeq++
				part := fmt.Sprintf("%s/part-m-%05d-t%d", j.cfg.OutputPath, i, j.attemptSeq)
				err := j.fs.WriteFile(host, part, out, j.cfg.OutputReplication, j.cfg.Name, func(_ []hdfs.Block) {
					if j.mapOut[i] == 0 && !stale() {
						j.result.OutputBytes += out
					}
					finish()
				})
				if err != nil {
					panic(fmt.Sprintf("mapreduce: map output write: %v", err))
				}
				return
			}
			finish()
		})
	})
}

// onMapCompleted feeds the shuffle: launch reducers at the slowstart
// threshold and notify running reducers that a new map output is ready.
func (j *Job) onMapCompleted(mapIdx int) {
	if j.cfg.NumReducers > 0 {
		j.maybeLaunchReducers()
		for _, r := range j.reducers {
			if r != nil {
				r.mapReady(mapIdx)
			}
		}
	}
	j.maybeFinish()
}

// onNodeFailed re-executes completed maps whose outputs lived on the
// failed host and are still needed by unfinished reducers — the
// TaskAttemptKillEvent path that makes node failure expensive in real
// deployments.
func (j *Job) onNodeFailed(host netsim.NodeID) {
	if j.finished || j.cfg.NumReducers == 0 {
		return
	}
	if j.redsDone == j.cfg.NumReducers {
		return
	}
	for i := range j.splits {
		if j.mapHost[i] != host || j.mapOut[i] == 0 {
			continue
		}
		// Skip if every launched reducer already holds this partition
		// and all reducers are launched.
		if j.redsQueued == j.cfg.NumReducers && j.allFetched(i) {
			continue
		}
		j.rerunMap(i)
	}
}

// onFetchFailures reacts to a reducer exceeding its fetch-failure budget
// against the host serving map mapIdx: the map output is declared lost
// and the map re-executed, as the AM does on TooManyFetchFailures. Stale
// reports (the map already re-running, moved, or epoch-bumped) are
// ignored.
func (j *Job) onFetchFailures(mapIdx int, host netsim.NodeID, epoch int) {
	if j.finished || j.mapEpoch[mapIdx] != epoch {
		return
	}
	if j.mapOut[mapIdx] == 0 || j.mapHost[mapIdx] != host {
		return
	}
	j.rerunMap(mapIdx)
}

// rerunMap declares map i's committed output lost and re-executes it:
// the output is uncounted, running reducers drop the partition, and a
// new attempt is requested.
func (j *Job) rerunMap(i int) {
	j.mapOut[i] = 0
	j.mapEpoch[i]++
	j.mapsDone--
	j.result.ReexecutedMaps++
	j.metrics.MapsReexecuted.Inc()
	for _, r := range j.reducers {
		if r != nil {
			r.invalidateMap(i)
		}
	}
	j.requestMap(i)
}

// allFetched reports whether every live reducer has already pulled map
// i's partition.
func (j *Job) allFetched(mapIdx int) bool {
	for _, r := range j.reducers {
		if r == nil || r.done {
			continue
		}
		if _, fetched := r.fetchedSet[mapIdx]; !fetched {
			return false
		}
	}
	return true
}

// maybeLaunchReducers ramps up reduce containers: at the slowstart
// threshold it requests up to half the cluster's slots (so queued maps
// can never be starved — the RMContainerAllocator's headroom rule), and
// the remainder once every map has finished.
func (j *Job) maybeLaunchReducers() {
	threshold := int(slowstartMaps*float64(len(j.splits)) + 0.999)
	if threshold < 1 {
		threshold = 1
	}
	if j.mapsDone < threshold {
		return
	}
	allowed := j.cfg.NumReducers
	if j.mapsDone < len(j.splits) {
		if headroom := j.rm.TotalSlots() / 2; allowed > headroom {
			allowed = headroom
		}
	}
	for j.redsQueued < allowed {
		ri := j.redsQueued
		j.redsQueued++
		j.requestReducer(ri)
	}
}

// requestReducer asks YARN for a container to run (or re-run) reducer ri.
func (j *Job) requestReducer(ri int) {
	j.metrics.ReduceAttempts.Inc()
	j.app.RequestContainer(yarn.PriorityReduce, nil, func(c *yarn.Container) {
		j.runReducer(ri, c)
	})
}
