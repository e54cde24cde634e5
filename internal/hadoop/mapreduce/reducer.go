package mapreduce

import (
	"fmt"
	"math"

	"keddah/internal/flows"
	"keddah/internal/hadoop/hdfs"
	"keddah/internal/hadoop/yarn"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/telemetry"
)

// reducer is one reduce task attempt: it shuffles a partition from every
// map output (at most MaxParallelFetches concurrent fetches, as the real
// Fetcher pool does), then merges, reduces, and commits its part file to
// HDFS through a replication pipeline. A lost attempt is re-run from
// scratch on a new container — its already-shuffled bytes are wasted,
// exactly the failure cost real deployments pay.
type reducer struct {
	job       *Job
	idx       int
	attempt   int
	container *yarn.Container
	host      netsim.NodeID
	started   sim.Time
	pending   []int // map indexes ready to fetch
	queued    map[int]bool
	// fetchedSet maps each fetched map index to the partition bytes
	// pulled, so shuffle conservation (bytes == Σ fetched sizes) is
	// checkable per reducer.
	fetchedSet map[int]int64
	// retries counts fault-aborted fetch attempts per map index;
	// hostFail counts them per serving host — at maxFetchFailures the
	// host is blacklisted for this shuffle and the AM re-runs the map.
	retries   map[int]int
	hostFail  map[netsim.NodeID]int
	blacklist map[netsim.NodeID]bool
	active    int
	bytes     int64
	shuffled  bool // all partitions fetched; merge/reduce underway
	done      bool // committed
	dead      bool // attempt superseded after container loss
}

// runReducer starts reduce task ri on the granted container and
// backfills fetches for all already-completed maps.
func (j *Job) runReducer(ri int, c *yarn.Container) {
	if j.finished {
		c.Release()
		return
	}
	attempt := 0
	for len(j.reducers) <= ri {
		j.reducers = append(j.reducers, nil)
	}
	if prev := j.reducers[ri]; prev != nil {
		attempt = prev.attempt + 1
	}
	r := &reducer{
		job:        j,
		idx:        ri,
		attempt:    attempt,
		container:  c,
		host:       c.Host(),
		started:    j.eng.Now(),
		queued:     make(map[int]bool, len(j.splits)),
		fetchedSet: make(map[int]int64, len(j.splits)),
		retries:    make(map[int]int),
		hostFail:   make(map[netsim.NodeID]int),
		blacklist:  make(map[netsim.NodeID]bool),
	}
	j.reducers[ri] = r

	c.OnLost(func() {
		if r.done || j.finished {
			return
		}
		r.dead = true
		j.result.ReexecutedReducers++
		j.metrics.ReducersReexecuted.Inc()
		j.requestReducer(ri)
	})
	j.umbilical(r.host, func() bool { return !r.done && !r.dead })

	// Backfill: a map is fetchable iff its output size is recorded.
	for m, out := range j.mapOut {
		if out > 0 {
			r.mapReady(m)
		}
	}
	r.pump()
}

// mapReady queues a completed map's partition for fetching. A partition
// fetched from a since-lost map attempt is kept, not re-pulled: the
// reducer spilled it locally, so a re-executed map must not trigger a
// duplicate shuffle (invalidateMap may have cleared queued while the
// original fetch was still in flight).
func (r *reducer) mapReady(mapIdx int) {
	if _, fetched := r.fetchedSet[mapIdx]; fetched || r.dead || r.done || r.queued[mapIdx] {
		return
	}
	r.queued[mapIdx] = true
	r.pending = append(r.pending, mapIdx)
	r.pump()
}

// invalidateMap reacts to a map output lost to a node failure: un-queue
// the partition so the re-executed attempt's completion re-feeds it.
// Already-fetched partitions are kept (the reducer spilled them locally).
func (r *reducer) invalidateMap(mapIdx int) {
	if _, fetched := r.fetchedSet[mapIdx]; fetched || r.dead || r.done || !r.queued[mapIdx] {
		return
	}
	r.queued[mapIdx] = false
	for i, m := range r.pending {
		if m == mapIdx {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			break
		}
	}
}

// partitionBytes sizes this reducer's share of one map output: the even
// split perturbed by key-skew jitter.
func (r *reducer) partitionBytes(mapIdx int) int64 {
	j := r.job
	share := float64(j.mapOut[mapIdx]) / float64(j.cfg.NumReducers)
	sz := int64(share * j.lognormalJitter(partitionSkewSigma))
	if sz < 1 {
		sz = 1
	}
	return sz
}

// pump starts fetches up to the parallel-copy bound and detects shuffle
// completion.
func (r *reducer) pump() {
	j := r.job
	if r.dead || r.done {
		return
	}
	for r.active < MaxParallelFetches && len(r.pending) > 0 {
		mapIdx := r.pending[0]
		r.pending = r.pending[1:]
		r.active++
		r.startFetch(mapIdx)
	}
	if r.active == 0 && len(r.fetchedSet) == len(j.splits) && !r.shuffled {
		r.finishShuffle()
	}
}

// startFetch pulls one map partition from its ShuffleHandler. A fetch
// torn down by a fault retries against the same host with exponential
// backoff; once maxFetchFailures accumulate against a host the reducer
// blacklists it and reports the map output lost to the AM, which
// re-executes the map (the real fetch-failure → TooManyFetchFailures
// escalation path).
func (r *reducer) startFetch(mapIdx int) {
	j := r.job
	size := r.partitionBytes(mapIdx)
	src := j.mapHost[mapIdx]
	epoch := j.mapEpoch[mapIdx]
	lbl := j.cfg.Name + "/shuffle"
	if r.retries[mapIdx] > 0 {
		lbl = j.cfg.Name + "/shuffle-retry"
	}
	j.metrics.ShuffleFetches.Inc()
	_, err := j.net.StartFlow(netsim.FlowSpec{
		Src:       src,
		Dst:       r.host,
		SrcPort:   flows.PortShuffle,
		DstPort:   flows.EphemeralPort(j.rng),
		SizeBytes: size,
		Label:     lbl,
		OnComplete: func(netsim.Flow) {
			r.active--
			if r.dead {
				return
			}
			r.fetchedSet[mapIdx] = size
			r.bytes += size
			j.result.ShuffleBytes += size
			r.pump()
		},
		OnAbort: func(netsim.Flow) {
			r.active--
			if r.dead || r.done || j.finished {
				return
			}
			j.result.ShuffleRetries++
			j.metrics.ShuffleRetries.Inc()
			r.hostFail[src]++
			if r.hostFail[src] >= maxFetchFailures && !r.blacklist[src] {
				r.blacklist[src] = true
				j.metrics.ShuffleBlacklists.Inc()
				r.queued[mapIdx] = false
				j.onFetchFailures(mapIdx, src, epoch)
				r.pump()
				return
			}
			r.retries[mapIdx]++
			backoff := sim.Backoff(fetchRetryBase, r.retries[mapIdx]-1)
			j.eng.After(backoff, func() {
				if r.dead || r.done || j.finished {
					return
				}
				if j.mapEpoch[mapIdx] != epoch {
					// The map is being re-executed; its fresh completion
					// will re-feed this partition through mapReady.
					r.queued[mapIdx] = false
					r.pump()
					return
				}
				r.pending = append(r.pending, mapIdx)
				r.pump()
			})
		},
	})
	if err != nil {
		panic(fmt.Sprintf("mapreduce: shuffle flow: %v", err))
	}
}

// finishShuffle runs merge + reduce compute and commits output to HDFS.
func (r *reducer) finishShuffle() {
	j := r.job
	r.shuffled = true
	mergeAndReduce := j.computeDelay(r.bytes, j.cfg.ReduceCostSecPerMB)
	j.eng.After(mergeAndReduce, func() {
		if r.dead || j.finished {
			return
		}
		out := int64(math.Round(float64(r.bytes) * j.cfg.ReduceSelectivity))
		commit := func() {
			if r.dead || j.finished {
				return
			}
			r.done = true
			j.tracer.Add(telemetry.Span{
				Cat: "mr", Name: "reduce", Attr: fmt.Sprintf("%s/r%d-a%d", j.cfg.Name, r.idx, r.attempt),
				StartNs: int64(r.started), EndNs: int64(j.eng.Now()),
			})
			j.control(r.host, j.app.AMHost(), flows.PortAMUmbilical, j.cfg.Name+"/reduceDone")
			r.container.Release()
			j.redsDone++
			j.maybeFinish()
		}
		if out <= 0 {
			commit()
			return
		}
		part := fmt.Sprintf("%s/part-r-%05d-a%d", j.cfg.OutputPath, r.idx, r.attempt)
		err := j.fs.WriteFile(r.host, part, out, j.cfg.OutputReplication, j.cfg.Name, func(_ []hdfs.Block) {
			j.result.OutputBytes += out
			commit()
		})
		if err != nil {
			panic(fmt.Sprintf("mapreduce: reduce output write: %v", err))
		}
	})
}
