// Multi-pod capture: several full Hadoop clusters ("pods"), each on its
// own shard of a sim.ShardedEngine, exchanging traffic through the
// store-and-forward inter-pod fabric. Everything inside a pod — network
// arenas, HDFS, YARN, jobs, RNG streams — stays strictly shard-local;
// the only cross-shard channel is the fabric's boundary posts, merged in
// fixed order at window barriers. The whole capture is therefore
// byte-identical at any engine layout (Shards 0, -1, or explicit) and
// any GOMAXPROCS, which the lockstep tests and the shard-determinism CI
// job verify against the serial layout.
package core

import (
	"fmt"
	"time"

	"keddah/internal/faults"
	"keddah/internal/hadoop"
	"keddah/internal/invariants"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// podSeedStride separates the pods' seed spaces: pod p runs with
// Seed + p·stride so its stochastic choices are independent of every
// other pod's but still a pure function of the spec.
const podSeedStride = 1_000_003

// sweepEveryEvents paces strict-mode invariant sweeps at window barriers
// by processed-event deltas — a count that is identical at every engine
// layout, unlike window wall-clock or per-shard step counts.
const sweepEveryEvents = 4096

// resolveShards maps the Shards knob to an engine count:
// 0 = serial (one engine), -1 = auto (one per pod), 1..pods explicit.
func resolveShards(pods, shards int) (int, error) {
	switch {
	case shards == 0:
		return 1, nil
	case shards == -1:
		return pods, nil
	case shards >= 1 && shards <= pods:
		return shards, nil
	default:
		return 0, fmt.Errorf("core: shards %d outside {-1, 0, 1..%d pods}", shards, pods)
	}
}

// captureMultiPod is the Pods > 1 arm of CaptureWith.
func captureMultiPod(spec ClusterSpec, runSpecs []workload.RunSpec, opts CaptureOpts) (*TraceSet, []workload.RunResult, error) {
	pods := spec.Pods
	engines, err := resolveShards(pods, spec.Shards)
	if err != nil {
		return nil, nil, err
	}
	switch spec.CrossPod {
	case "", "ring", "fanin", "none":
	default:
		return nil, nil, fmt.Errorf("core: unknown cross-pod traffic mode %q", spec.CrossPod)
	}
	latency := sim.Time(spec.InterPodLatencyNs)
	if latency <= 0 {
		latency = sim.Time(netsim.DefaultInterPodLatencyNs)
	}
	wallStart := time.Now()
	tel := opts.Telemetry

	sched, err := sim.NewSharded(pods, engines, latency)
	if err != nil {
		return nil, nil, err
	}
	if tel != nil {
		sched.SetMetrics(tel.ShardSet(engines))
	}

	// Build one full cluster per pod on its shard's engine. Pod seeds are
	// disjoint strides of the spec seed so each pod's traffic is its own
	// deterministic stream.
	clusters := make([]*hadoop.Cluster, pods)
	flowLogs := make([]*pcap.FlowLog, pods)
	nets := make([]*netsim.Network, pods)
	gateways := make([]netsim.NodeID, pods)
	est := workload.EstimatePeakFlowsMultiPod(
		runSpecs, spec.Workers, spec.SlotsPerNode, spec.Replication, pods-1)
	for p := 0; p < pods; p++ {
		podSpec := spec
		podSpec.Seed = spec.Seed + int64(p)*podSeedStride
		c, err := podSpec.buildClusterOn(sched.PodEngine(p))
		if err != nil {
			return nil, nil, fmt.Errorf("build pod %d: %w", p, err)
		}
		c.Net.Reserve(est)
		c.AttachTelemetry(tel)
		if tel != nil {
			// The heap high-water mark depends on how many pods share an
			// engine; keep only the layout-invariant event counter so the
			// deterministic snapshot is byte-identical at every -shards.
			c.Eng.SetMetrics(telemetry.SimMetrics{Events: tel.Sim.Events})
		}
		flowLog := attachTruth(c.Net)
		// Disjoint address ranges per pod: merged traces keep globally
		// unique 5-tuples.
		flowLog.SetHostOffset(p * c.Net.Topology().NumNodes())
		clusters[p], flowLogs[p] = c, flowLog
		nets[p], gateways[p] = c.Net, c.Master()
	}

	ip, err := netsim.NewInterPod(sched, nets, gateways, latency)
	if err != nil {
		return nil, nil, err
	}

	// Failure and fault schedules address workers globally
	// (pod = index / Workers); link faults are pod-ambiguous and
	// rejected — pod-pair outages go through InterPodFaults instead.
	for _, f := range opts.Failures {
		p := f.WorkerIndex / spec.Workers
		if f.WorkerIndex < 0 || p >= pods {
			return nil, nil, fmt.Errorf("core: failure worker index %d out of range (%d pods × %d workers)",
				f.WorkerIndex, pods, spec.Workers)
		}
		w := clusters[p].Workers()[f.WorkerIndex%spec.Workers]
		if err := clusters[p].FailWorker(w, sim.Time(f.AtNs)); err != nil {
			return nil, nil, fmt.Errorf("schedule failure: %w", err)
		}
	}
	podFaults := make([]faults.Schedule, pods)
	for _, f := range opts.Faults.Faults {
		if f.Kind != faults.NodeCrash {
			return nil, nil, fmt.Errorf("core: fault kind %q targets a pod-local link; multi-pod captures take nodeCrash plus InterPodFaults", f.Kind)
		}
		p := f.Worker / spec.Workers
		if f.Worker < 0 || p >= pods {
			return nil, nil, fmt.Errorf("core: fault worker index %d out of range (%d pods × %d workers)",
				f.Worker, pods, spec.Workers)
		}
		lf := f
		lf.Worker = f.Worker % spec.Workers
		podFaults[p].Faults = append(podFaults[p].Faults, lf)
	}
	for p, s := range podFaults {
		if err := faults.Inject(clusters[p], s); err != nil {
			return nil, nil, fmt.Errorf("schedule faults on pod %d: %w", p, err)
		}
	}
	for _, f := range opts.InterPodFaults {
		recover := sim.Time(0)
		if f.DurationNs > 0 {
			recover = sim.Time(f.AtNs + f.DurationNs)
		}
		if err := ip.SchedulePairFault(f.SrcPod, f.DstPod, sim.Time(f.AtNs), recover); err != nil {
			return nil, nil, fmt.Errorf("schedule inter-pod fault: %w", err)
		}
	}

	// Strict mode: one read-only checker per pod, swept from the barrier
	// hook (no shard goroutine in flight there) at a deterministic
	// processed-event cadence, plus the fabric's conservation check.
	var checkers []*invariants.Checker
	var tracer *telemetry.Tracer
	if tel != nil {
		tracer = tel.Trace
	}
	if opts.StrictChecks || invariants.BuildEnabled {
		for p := 0; p < pods; p++ {
			checkers = append(checkers, invariants.Attach(clusters[p], tracer))
		}
		var lastSweep uint64
		sched.SetBarrierHook(func() error {
			if done := sched.ProcessedTotal(); done-lastSweep >= sweepEveryEvents {
				lastSweep = done
				for _, ck := range checkers {
					if err := ck.Sweep(); err != nil {
						return err
					}
				}
				return invariants.CheckInterPod(ip, int64(sched.Now()), tracer)
			}
			return nil
		})
	}

	// Each pod runs its slice of the workload list (striped: run i goes
	// to pod i % pods) strictly sequentially, exactly like the serial
	// harness; after a pod's last run, the cross-pod copy of its final
	// output is sent through the fabric.
	results := make([]workload.RunResult, len(runSpecs))
	podRuns := make([][]int, pods)
	for i := range runSpecs {
		podRuns[i%pods] = append(podRuns[i%pods], i)
	}
	crossPod := func(p int, last workload.RunResult) {
		dst := -1
		switch spec.CrossPod {
		case "", "ring":
			dst = (p + 1) % pods
		case "fanin":
			if p != 0 {
				dst = 0
			}
		}
		if dst < 0 || dst == p {
			return
		}
		var size int64
		for _, round := range last.Rounds {
			size += round.OutputBytes
		}
		if size <= 0 {
			return
		}
		src := clusters[p].Workers()[0]
		dstHosts := clusters[dst].Workers()
		err := ip.Send(netsim.TransferSpec{
			SrcPod: p, DstPod: dst,
			Src: src, Dst: dstHosts[len(dstHosts)-1],
			SizeBytes: size,
			Label:     fmt.Sprintf("distcp/%d-%d", p, dst),
		})
		if err != nil {
			panic(fmt.Sprintf("core: cross-pod copy %d→%d: %v", p, dst, err))
		}
	}
	var launch func(p, k int) error
	launch = func(p, k int) error {
		if k == len(podRuns[p]) {
			return nil
		}
		i := podRuns[p][k]
		rs := runSpecs[i]
		if rs.JobName == "" {
			rs.JobName = fmt.Sprintf("%s%d", rs.Profile, i)
		}
		return workload.Run(clusters[p], rs, i, func(res workload.RunResult) {
			results[i] = res
			if k+1 < len(podRuns[p]) {
				if err := launch(p, k+1); err != nil {
					panic(fmt.Sprintf("core: launch run %d on pod %d: %v", podRuns[p][k+1], p, err))
				}
				return
			}
			crossPod(p, res)
		})
	}
	for p := 0; p < pods; p++ {
		clusters[p].Start()
		if err := launch(p, 0); err != nil {
			return nil, nil, fmt.Errorf("launch first run on pod %d: %w", p, err)
		}
	}

	// Advance all pods window by window until every pod is idle and the
	// fabric has no transfer in flight, then tear down and drain exactly
	// like the serial RunToIdle.
	done := func() bool {
		for _, c := range clusters {
			if c.Pending() > 0 {
				return false
			}
		}
		return ip.Pending() == 0
	}
	end, err := sched.RunWindows(done)
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: %w", err)
	}
	for _, c := range clusters {
		c.FS.Shutdown()
		c.RM.Shutdown()
	}
	if _, err := sched.Drain(); err != nil {
		return nil, nil, fmt.Errorf("drain: %w", err)
	}

	faultFree := len(opts.Failures) == 0 && len(opts.Faults.Faults) == 0 && len(opts.InterPodFaults) == 0
	for p, ck := range checkers {
		if err := ck.Final(faultFree); err != nil {
			return nil, nil, fmt.Errorf("pod %d: %w", p, err)
		}
	}
	if len(checkers) > 0 {
		if err := invariants.CheckInterPod(ip, int64(end), tracer); err != nil {
			return nil, nil, err
		}
	}
	if tel != nil {
		tel.Core.Captures.Inc()
		tel.Core.CaptureSimNs.SetMax(float64(end))
		tel.Core.CaptureWallMs.Add(float64(time.Since(wallStart).Milliseconds()))
		tel.Trace.Add(telemetry.Span{Cat: "core", Name: "capture", Attr: spec.Topology, EndNs: int64(end)})
	}

	// Merge ground truth in pod order — each pod's records are already in
	// its own completion order, and the concatenation is independent of
	// engine layout — then reduce exactly like a single-pod capture.
	var truth []pcap.FlowRecord
	for _, flowLog := range flowLogs {
		truth = append(truth, flowLog.Truth()...)
	}
	ts, err := reduceCapture(spec, truth, results)
	if err != nil {
		return nil, nil, err
	}
	ts.BackgroundHosts = spec.Workers * pods
	var stats CaptureStats
	for _, c := range clusters {
		stats.ReReplicatedBytes += c.FS.ReReplicatedBytes
		stats.ReReplicatedBlocks += c.FS.ReReplicatedBlocks
		stats.LostContainers += c.RM.LostContainers
		stats.LostBlocks += c.FS.LostBlocks
		stats.PipelineRecoveries += c.FS.PipelineRecoveries
		stats.ReadRetries += c.FS.ReadRetries
		stats.AbortedFlows += int64(c.Net.AbortedFlows())
	}
	ipStats := ip.Stats()
	stats.InterPodTransfers = ipStats.Completed
	stats.InterPodRelayed = ipStats.Relayed
	stats.InterPodAborted = ipStats.Aborted
	stats.InterPodBytes = ipStats.Stage2Bytes
	ts.Stats = stats
	return ts, results, nil
}
