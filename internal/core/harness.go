package core

import (
	"fmt"
	"time"

	"keddah/internal/faults"
	"keddah/internal/flows"
	"keddah/internal/hadoop"
	"keddah/internal/hadoop/hdfs"
	"keddah/internal/hadoop/yarn"
	"keddah/internal/invariants"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// ClusterSpec describes the testbed a capture session runs on. It covers
// the configuration axes the paper varies: cluster size, fabric shape and
// capacity, HDFS block size and replication, and container slots.
type ClusterSpec struct {
	// Topology is "star", "multirack" or "fattree" (default "star").
	Topology string `json:"topology"`
	// Workers is the worker host count (star/multirack; default
	// DefaultWorkers). One extra master host is always added.
	Workers int `json:"workers"`
	// Racks is the rack count for multirack (default 2).
	Racks int `json:"racks"`
	// HostGbps is the access-link capacity (default 1).
	HostGbps float64 `json:"hostGbps"`
	// UplinkGbps is the rack uplink capacity for multirack (default 10).
	UplinkGbps float64 `json:"uplinkGbps"`
	// FatTreeK is the fat-tree arity (hosts = k³/4; first host is the
	// master).
	FatTreeK int `json:"fatTreeK"`
	// BlockSize / Replication / SlotsPerNode are Hadoop parameters
	// (defaults hdfs.DefaultBlockSize, hdfs.DefaultReplication,
	// yarn.DefaultSlotsPerNode).
	BlockSize    int64 `json:"blockSize"`
	Replication  int   `json:"replication"`
	SlotsPerNode int   `json:"slotsPerNode"`
	// LocalityWaitNs overrides the delay-scheduling window (0 = the
	// YARN default of 3s; pass 1 to disable locality waiting — the A1
	// ablation).
	LocalityWaitNs int64 `json:"localityWaitNs"`
	// Allocator selects the bandwidth sharing model: "" or "maxmin"
	// (default) or "equalsplit" (the A2 ablation). The TCP transport
	// always shares by demand-capped max-min.
	Allocator string `json:"allocator"`
	// Transport selects the network rate model: "" or "fluid" (default
	// max-min fluid sharing) or "tcp" (per-flow TCP state machine with
	// slow start, AIMD, fast retransmit and RTO over droptail queues).
	Transport string `json:"transport"`
	// Seed fixes all randomness.
	Seed int64 `json:"seed"`
	// Pods is a capture's pod count (0 counts as 1). Each pod is a full
	// cluster of Workers hosts (own master, own network); above one pod,
	// pods exchange traffic through the store-and-forward inter-pod
	// fabric: after its last run, pod p distcps its final output to pod
	// p+1 (the last pod to pod 0).
	Pods int `json:"pods,omitempty"`
	// Shards selects a capture's engine layout: 0 = serial (one event
	// engine hosting every pod, still advancing through the same
	// conservative windows), -1 = auto (one engine per pod), or an
	// explicit count in [1, Pods]. Output is byte-identical at every
	// setting; only wall-clock changes. Captures reject any other value
	// at every pod count, and a single pod always runs on one engine.
	// Replays ignore it.
	Shards int `json:"shards,omitempty"`
	// InterPodLatencyNs is the one-way gateway-to-gateway latency of
	// the inter-pod fabric (default 1ms). It is also the scheduler
	// lookahead the conservative windows are derived from.
	InterPodLatencyNs int64 `json:"interPodLatencyNs,omitempty"`
}

// DefaultWorkers is the worker host count a ClusterSpec, GenSpec or
// MixSpec that names none runs on.
const DefaultWorkers = 16

func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.Topology == "" {
		s.Topology = "star"
	}
	if s.Workers <= 0 {
		s.Workers = DefaultWorkers
	}
	if s.Racks <= 0 {
		s.Racks = 2
	}
	if s.HostGbps <= 0 {
		s.HostGbps = 1
	}
	if s.UplinkGbps <= 0 {
		s.UplinkGbps = 10
	}
	if s.FatTreeK <= 0 {
		s.FatTreeK = 4
	}
	if s.BlockSize <= 0 {
		s.BlockSize = hdfs.DefaultBlockSize
	}
	if s.Replication <= 0 {
		s.Replication = hdfs.DefaultReplication
	}
	if s.SlotsPerNode <= 0 {
		s.SlotsPerNode = yarn.DefaultSlotsPerNode
	}
	return s
}

// BuildTopology constructs the fabric described by the spec.
func (s ClusterSpec) BuildTopology() (*netsim.Topology, error) {
	s = s.withDefaults()
	switch s.Topology {
	case "star":
		return netsim.Star(s.Workers+1, s.HostGbps*netsim.Gbps)
	case "multirack":
		total := s.Workers + 1
		perRack := (total + s.Racks - 1) / s.Racks
		return netsim.MultiRack(s.Racks, perRack, s.HostGbps*netsim.Gbps, s.UplinkGbps*netsim.Gbps)
	case "fattree":
		return netsim.FatTree(s.FatTreeK, s.HostGbps*netsim.Gbps)
	default:
		return nil, fmt.Errorf("core: unknown topology %q", s.Topology)
	}
}

// BuildCluster assembles a Hadoop cluster on the spec's fabric.
func (s ClusterSpec) BuildCluster() (*hadoop.Cluster, error) {
	return s.buildClusterOn(nil)
}

// buildClusterOn is BuildCluster with the event engine chosen by the
// caller — multi-pod captures place each pod's cluster on its shard's
// engine. A nil engine gives the cluster a fresh private one.
func (s ClusterSpec) buildClusterOn(eng *sim.Engine) (*hadoop.Cluster, error) {
	topo, err := s.BuildTopology()
	if err != nil {
		return nil, err
	}
	netCfg, err := s.netConfig()
	if err != nil {
		return nil, err
	}
	s = s.withDefaults()
	return hadoop.New(topo, hadoop.Config{
		HDFS:   hdfs.Config{BlockSize: s.BlockSize, Replication: s.Replication},
		YARN:   yarn.Config{SlotsPerNode: s.SlotsPerNode, LocalityWait: sim.Time(s.LocalityWaitNs)},
		Net:    netCfg,
		Engine: eng,
		Seed:   s.Seed,
	})
}

// netConfig maps the spec's network knobs (allocator and transport) to a
// netsim.Config, rejecting unknown names. Captures and replays both build
// their network from it, so the two can never disagree on a spec.
func (s ClusterSpec) netConfig() (netsim.Config, error) {
	cfg := netsim.Config{Allocator: s.Allocator, Transport: s.Transport}
	if err := cfg.Validate(); err != nil {
		return netsim.Config{}, fmt.Errorf("core: %w", err)
	}
	return cfg, nil
}

// FailureSpec injects a whole-worker failure during a capture session.
type FailureSpec struct {
	// WorkerIndex selects the victim among all pods' workers: pod
	// index / n, worker index % n within it, for n workers per pod.
	WorkerIndex int `json:"workerIndex"`
	// AtNs is the simulated failure time.
	AtNs int64 `json:"atNs"`
}

// CaptureOpts holds CaptureWith's optional session behaviour.
type CaptureOpts struct {
	// Failures schedules permanent crash-stop worker kills (the legacy
	// E11 path, kept for compatibility).
	Failures []FailureSpec
	// Faults is the generalised fault schedule: link down/degrade and
	// transient node crash+rejoin. An empty schedule changes nothing —
	// captures are record-identical to a fault-free session. A crash's
	// Worker is a global index like FailureSpec.WorkerIndex; link faults
	// name a pod-local link, so only a single-pod capture takes them.
	Faults faults.Schedule
	// Telemetry, when non-nil, instruments the whole session: counters
	// and spans across every layer, and — when the Telemetry has a link
	// timeline enabled — a per-link utilisation probe, which needs a
	// single-pod capture. The capture's traffic is unchanged by
	// attaching it.
	Telemetry *telemetry.Telemetry
	// StrictChecks runs the invariants layer during the session: sampled
	// cross-layer sweeps after engine steps plus end-of-capture packet
	// train and conservation checks. Checks are read-only, so the
	// captured traffic is byte-identical either way. Binaries built with
	// the keddah_checks tag force this on for every capture.
	StrictChecks bool
	// Packets, when non-nil, taps the session beside its truth log and
	// synthesises every flow's packets into the capture's buffer or
	// sink; CaptureWith returns the sink's error. It needs a single-pod
	// capture. The captured traffic is unchanged by attaching it.
	Packets *pcap.Capture
}

// CaptureWith runs the given workloads on fresh clusters built from
// spec, tapping every flow, and reduces the capture into a TraceSet: one
// Run per MapReduce round, with cluster-wide heartbeat and inter-pod copy
// traffic in Background. This is the toolchain's measurement stage; opts
// adds failure injection and other session behaviour, and its zero value
// runs a plain session.
//
// One session runs every pod count. Each of spec.Pods pods (0 counts as
// one) is a full cluster with its own master, network and seed stream.
// Runs stripe across pods (run i on pod i % pods) and run strictly one
// after another within a pod, so each run's traffic is cleanly
// attributable (the paper isolates jobs the same way). Failures and
// nodeCrash faults address workers globally (pod = index / workers per
// pod). Three things depend on the pod count:
//   - the engine: one pod runs on its cluster's own engine through
//     Cluster.RunToIdle, which sweeps strict checks after every event;
//     more pods share a sim.ShardedEngine, exchange copies through the
//     inter-pod fabric and advance in conservative windows, with sweeps
//     at the barriers;
//   - start order: one pod launches its first run before its heartbeats
//     start (RunToIdle starts them); more pods start every pod first;
//   - link faults, the utilisation probe (Telemetry.Links) and the
//     packet capture (opts.Packets) need one pod, and above one pod the
//     heap-depth gauge is dropped, since it depends on how many pods
//     share an engine.
func CaptureWith(spec ClusterSpec, runSpecs []workload.RunSpec, opts CaptureOpts) (*TraceSet, []workload.RunResult, error) {
	spec = spec.withDefaults()
	pods := max(spec.Pods, 1)
	engines, err := checkSession(spec, pods, opts)
	if err != nil {
		return nil, nil, err
	}
	wallStart := time.Now()
	tel := opts.Telemetry
	var tracer *telemetry.Tracer
	if tel != nil {
		tracer = tel.Trace
	}

	var sched *sim.ShardedEngine
	latency := sim.Time(spec.InterPodLatencyNs)
	if latency <= 0 {
		latency = sim.Time(netsim.DefaultInterPodLatencyNs)
	}
	if pods > 1 {
		if sched, err = sim.NewSharded(pods, engines, latency); err != nil {
			return nil, nil, err
		}
		if tel != nil {
			sched.SetMetrics(tel.ShardSet(engines))
		}
	}

	// Build one full cluster per pod. Pod seeds are disjoint strides of
	// the spec seed so each pod's traffic is its own deterministic stream.
	clusters := make([]*hadoop.Cluster, pods)
	flowLogs := make([]*pcap.FlowLog, pods)
	var perPod, est int
	for p := range clusters {
		podSpec := spec
		podSpec.Seed = spec.Seed + int64(p)*podSeedStride
		var eng *sim.Engine
		if sched != nil {
			eng = sched.PodEngine(p)
		}
		c, err := podSpec.buildClusterOn(eng)
		if err != nil {
			return nil, nil, fmt.Errorf("build pod %d: %w", p, err)
		}
		if p == 0 {
			// Pre-size the network's flow storage (and the engine's event
			// slab) from the workload profiles' predicted peak concurrency,
			// so the steady-state capture loop allocates nothing.
			perPod = len(c.Workers())
			est = workload.EstimatePeakFlows(runSpecs, perPod, spec.SlotsPerNode, spec.Replication, pods)
		}
		c.Net.Reserve(est)
		c.AttachTelemetry(tel)
		if tel != nil && pods > 1 {
			c.Eng.SetMetrics(telemetry.SimMetrics{Events: tel.Sim.Events})
		}
		flowLog := attachTruth(c.Net)
		// Disjoint address ranges per pod: merged traces keep globally
		// unique 5-tuples.
		flowLog.SetHostOffset(p * c.Net.Topology().NumNodes())
		clusters[p], flowLogs[p] = c, flowLog
	}
	if opts.Packets != nil {
		clusters[0].Net.AddTap(opts.Packets)
	}
	var ip *netsim.InterPod
	if pods > 1 {
		nets := make([]*netsim.Network, pods)
		gateways := make([]netsim.NodeID, pods)
		for p, c := range clusters {
			nets[p], gateways[p] = c.Net, c.Master()
		}
		if ip, err = netsim.NewInterPod(sched, nets, gateways, latency); err != nil {
			return nil, nil, err
		}
	}
	if err := scheduleFaults(clusters, perPod, opts); err != nil {
		return nil, nil, err
	}

	// Strict mode: one read-only checker per pod. A single pod sweeps from
	// RunToIdle's per-event hook; a sharded session sweeps from the
	// barrier hook (no shard goroutine in flight there) at a deterministic
	// processed-event cadence, plus the fabric's conservation check.
	var checkers []*invariants.Checker
	if opts.StrictChecks || invariants.BuildEnabled {
		for _, c := range clusters {
			checkers = append(checkers, invariants.Attach(c, tracer))
		}
		if sched != nil {
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
	}
	// Each pod runs its stripe of the workload list in order; after a
	// pod's last run, the cross-pod copy of its final output is sent
	// through the fabric.
	results := make([]workload.RunResult, len(runSpecs))
	podRuns := make([][]int, pods)
	for i := range runSpecs {
		podRuns[i%pods] = append(podRuns[i%pods], i)
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
			crossPod(clusters, ip, p, res)
		})
	}
	for p, c := range clusters {
		if pods > 1 {
			c.Start()
		}
		if err := launch(p, 0); err != nil {
			return nil, nil, fmt.Errorf("launch first run on pod %d: %w", p, err)
		}
	}
	startProbe(clusters[0].Net, tel)

	var end sim.Time
	if sched == nil {
		end, err = clusters[0].RunToIdle()
	} else {
		end, err = runWindows(sched, clusters, ip)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: %w", err)
	}
	if opts.Packets != nil {
		if err := opts.Packets.Err(); err != nil {
			return nil, nil, fmt.Errorf("packet capture: %w", err)
		}
	}

	faultFree := len(opts.Failures) == 0 && len(opts.Faults.Faults) == 0
	for p, ck := range checkers {
		if err := ck.Final(faultFree); err != nil {
			return nil, nil, fmt.Errorf("pod %d: %w", p, err)
		}
	}
	if ip != nil && len(checkers) > 0 {
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
	// engine layout.
	truth := flowLogs[0].Truth()
	if len(flowLogs) > 1 {
		n := 0
		for _, flowLog := range flowLogs {
			n += len(flowLog.Truth())
		}
		truth = make([]pcap.FlowRecord, 0, n)
		for _, flowLog := range flowLogs {
			truth = append(truth, flowLog.Truth()...)
		}
	}
	ts, err := reduceCapture(spec, truth, results)
	if err != nil {
		return nil, nil, err
	}
	ts.BackgroundHosts = spec.Workers * pods
	for _, c := range clusters {
		ts.Stats.ReReplicatedBytes += c.FS.ReReplicatedBytes
		ts.Stats.ReReplicatedBlocks += c.FS.ReReplicatedBlocks
		ts.Stats.LostContainers += c.RM.LostContainers
		ts.Stats.LostBlocks += c.FS.LostBlocks
		ts.Stats.PipelineRecoveries += c.FS.PipelineRecoveries
		ts.Stats.ReadRetries += c.FS.ReadRetries
		ts.Stats.AbortedFlows += int64(c.Net.AbortedFlows())
	}
	if ip != nil {
		ipStats := ip.Stats()
		ts.Stats.InterPodTransfers = ipStats.Completed
		ts.Stats.InterPodAborted = ipStats.Aborted
		ts.Stats.InterPodBytes = ipStats.Stage2Bytes
	}
	return ts, results, nil
}

// podSeedStride separates the pods' seed spaces: pod p runs with
// Seed + p·stride so its stochastic choices are independent of every
// other pod's but still a pure function of the spec.
const podSeedStride = 1_000_003

// sweepEveryEvents paces strict-mode invariant sweeps at window barriers
// by processed-event deltas — a count that is identical at every engine
// layout, unlike window wall-clock or per-shard step counts.
const sweepEveryEvents = 4096

// checkSession rejects spec and option values the session cannot run at
// the given pod count, and returns the engine count Shards resolves to.
func checkSession(spec ClusterSpec, pods int, opts CaptureOpts) (int, error) {
	engines, err := resolveShards(pods, spec.Shards)
	if err != nil {
		return 0, err
	}
	if pods > 1 && opts.Telemetry != nil && opts.Telemetry.Links != nil {
		return 0, fmt.Errorf("core: the link utilisation timeline needs a single-pod capture (pods=%d)", pods)
	}
	if pods > 1 && opts.Packets != nil {
		return 0, fmt.Errorf("core: the packet capture needs a single-pod capture (pods=%d)", pods)
	}
	return engines, nil
}

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

// scheduleFaults routes the session's failure and fault schedules to
// their pods, in order: worker failures in list order, then each pod's
// faults. Workers are addressed globally (pod = index / perPod). Link
// faults are pod-ambiguous, so only a single-pod session takes them.
func scheduleFaults(clusters []*hadoop.Cluster, perPod int, opts CaptureOpts) error {
	pods := len(clusters)
	for _, f := range opts.Failures {
		p := f.WorkerIndex / perPod
		if f.WorkerIndex < 0 || p >= pods {
			return fmt.Errorf("core: failure worker index %d out of range (%d pods × %d workers)",
				f.WorkerIndex, pods, perPod)
		}
		c := clusters[p]
		if err := c.FailWorker(c.Workers()[f.WorkerIndex%perPod], sim.Time(f.AtNs)); err != nil {
			return fmt.Errorf("schedule failure: %w", err)
		}
	}
	podFaults := make([]faults.Schedule, pods)
	for _, f := range opts.Faults.Faults {
		p := 0
		switch {
		case f.Kind == faults.NodeCrash:
			p = f.Worker / perPod
			if f.Worker < 0 || p >= pods {
				return fmt.Errorf("core: fault worker index %d out of range (%d pods × %d workers)",
					f.Worker, pods, perPod)
			}
			f.Worker %= perPod
		case pods > 1:
			return fmt.Errorf("core: fault kind %q targets a pod-local link; multi-pod captures take only nodeCrash", f.Kind)
		}
		podFaults[p].Faults = append(podFaults[p].Faults, f)
	}
	for p, s := range podFaults {
		if err := faults.Inject(clusters[p], s); err != nil {
			return fmt.Errorf("schedule faults on pod %d: %w", p, err)
		}
	}
	return nil
}

// crossPod sends pod p's inter-pod copy of its last run's output through
// the fabric to pod p+1 (the last pod to pod 0). A single-pod session
// has no other pod to copy to.
func crossPod(clusters []*hadoop.Cluster, ip *netsim.InterPod, p int, last workload.RunResult) {
	dst := (p + 1) % len(clusters)
	if dst == p {
		return
	}
	var size int64
	for _, round := range last.Rounds {
		size += round.OutputBytes
	}
	if size <= 0 {
		return
	}
	dstHosts := clusters[dst].Workers()
	err := ip.Send(netsim.TransferSpec{
		SrcPod: p, DstPod: dst,
		Src: clusters[p].Workers()[0], Dst: dstHosts[len(dstHosts)-1],
		SizeBytes: size,
		Label:     fmt.Sprintf("distcp/%d-%d", p, dst),
	})
	if err != nil {
		panic(fmt.Sprintf("core: cross-pod copy %d→%d: %v", p, dst, err))
	}
}

// runWindows advances a sharded session window by window until every pod
// is idle and the fabric has no transfer in flight, then tears the
// daemons down and drains, as Cluster.RunToIdle does for one pod.
func runWindows(sched *sim.ShardedEngine, clusters []*hadoop.Cluster, ip *netsim.InterPod) (sim.Time, error) {
	end, err := sched.RunWindows(func() bool {
		for _, c := range clusters {
			if c.Pending() > 0 {
				return false
			}
		}
		return ip.Pending() == 0
	})
	if err != nil {
		return end, err
	}
	for _, c := range clusters {
		c.FS.Shutdown()
		c.RM.Shutdown()
	}
	if _, err := sched.Drain(); err != nil {
		return end, fmt.Errorf("drain: %w", err)
	}
	return end, nil
}

// attachTruth taps net with the ground-truth recorder a capture or replay
// reduces: a FlowLog, which reads no rate history, so the network records
// none unless a caller's packet capture (CaptureOpts.Packets) or strict
// mode's checker asks for it.
func attachTruth(net *netsim.Network) *pcap.FlowLog {
	truth := pcap.NewFlowLog()
	net.AddTap(truth)
	return truth
}

// startProbe samples net's links into tel's link timeline, when tel asks
// for one, until the session's event queue drains. Captures and replays
// start it after their first work is queued, so the probe's ticks follow
// same-instant events already scheduled.
func startProbe(net *netsim.Network, tel *telemetry.Telemetry) {
	if tel != nil && tel.Links != nil {
		netsim.NewUtilizationProbe(net, tel.Links).Start()
	}
}

// reduceCapture groups ground-truth flow records into per-job Runs plus
// cluster background traffic. Each Run keeps its group's slice as its
// Records; nothing is classified here, since Fit classifies each run
// once through Run.Dataset.
func reduceCapture(spec ClusterSpec, records []pcap.FlowRecord, results []workload.RunResult) (*TraceSet, error) {
	groups := flows.GroupByJob(records)
	ts := &TraceSet{BackgroundHosts: spec.Workers}

	// Background: cluster-wide heartbeats (yarn/*, hdfs/*) plus the
	// inter-pod copy traffic of multi-pod sessions (distcp/*).
	bgKeys := [...]string{"yarn", "hdfs", "distcp"}
	n := 0
	for _, key := range bgKeys {
		n += len(groups[key])
	}
	if n > 0 {
		ts.Background = make([]pcap.FlowRecord, 0, n)
		for _, key := range bgKeys {
			ts.Background = append(ts.Background, groups[key]...)
		}
		first, last := flows.Span(ts.Background)
		ts.BackgroundSpanNs = last - first
	}

	for _, rr := range results {
		for _, round := range rr.Rounds {
			g, ok := groups[round.Name]
			if !ok {
				return nil, fmt.Errorf("core: no captured flows for job %s", round.Name)
			}
			ts.Runs = append(ts.Runs, &Run{
				Workload:    rr.Spec.Profile,
				JobName:     round.Name,
				InputBytes:  round.InputBytes,
				Maps:        round.Maps,
				Reducers:    round.Reducers,
				BlockSize:   spec.BlockSize,
				Replication: spec.Replication,
				Hosts:       spec.Workers,
				StartNs:     int64(round.Submitted),
				EndNs:       int64(round.Finished),
				Records:     g,
			})
		}
	}
	return ts, nil
}
