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
	// Workers is the worker host count (star/multirack). One extra
	// master host is always added.
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
	// (defaults 128 MiB, 3, 4).
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
	// Pods is the pod count of a multi-pod capture. 0 or 1 runs the
	// classic single-pod session; above 1, each pod is a full cluster
	// of Workers hosts (own master, own network) and pods exchange
	// traffic through the store-and-forward inter-pod fabric.
	Pods int `json:"pods,omitempty"`
	// Shards selects the engine layout of a multi-pod capture:
	// 0 = serial (one event engine hosting every pod, still advancing
	// through the same conservative windows), -1 = auto (one engine per
	// pod), or an explicit count in [1, Pods]. Output is byte-identical
	// at every setting; only wall-clock changes. Single-pod captures and
	// replays ignore it.
	Shards int `json:"shards,omitempty"`
	// CrossPod selects the inter-pod copy traffic each pod emits after
	// its last run: "" or "ring" (pod p distcps its final output to pod
	// p+1), "fanin" (every pod sends to pod 0 — the skewed-reducer
	// shape), or "none".
	CrossPod string `json:"crossPod,omitempty"`
	// InterPodLatencyNs is the one-way gateway-to-gateway latency of
	// the inter-pod fabric (default 1ms). It is also the scheduler
	// lookahead the conservative windows are derived from.
	InterPodLatencyNs int64 `json:"interPodLatencyNs,omitempty"`
}

func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.Topology == "" {
		s.Topology = "star"
	}
	if s.Workers <= 0 {
		s.Workers = 16
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
	var alloc netsim.Allocator
	switch s.Allocator {
	case "", "maxmin":
		alloc = netsim.AllocMaxMin
	case "equalsplit":
		alloc = netsim.AllocEqualSplit
	default:
		return netsim.Config{}, fmt.Errorf("core: unknown allocator %q", s.Allocator)
	}
	if _, err := netsim.ParseTransport(s.Transport); err != nil {
		return netsim.Config{}, fmt.Errorf("core: %w", err)
	}
	return netsim.Config{Allocator: alloc, Transport: s.Transport}, nil
}

// FailureSpec injects a whole-worker failure during a capture session.
type FailureSpec struct {
	// WorkerIndex selects the victim among the cluster's workers.
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
	// captures are record-identical to a fault-free session.
	Faults faults.Schedule
	// Telemetry, when non-nil, instruments the whole session: counters
	// and spans across every layer, and — when the Telemetry has a link
	// timeline enabled — a per-link utilisation probe. The capture's
	// traffic is unchanged by attaching it.
	Telemetry *telemetry.Telemetry
	// StrictChecks runs the invariants layer during the session: sampled
	// cross-layer sweeps after engine steps plus end-of-capture packet
	// train and conservation checks. Checks are read-only, so the
	// captured traffic is byte-identical either way. Binaries built with
	// the keddah_checks tag force this on for every capture.
	StrictChecks bool
	// InterPodFaults marks pod-pair fabric outages in a multi-pod
	// capture: transfers between a down pair detour through a relay pod
	// or abort. Ignored (with an error) outside multi-pod sessions.
	InterPodFaults []InterPodFault
}

// InterPodFault takes the (SrcPod, DstPod) fabric pair down at AtNs for
// DurationNs (0 = permanently).
type InterPodFault struct {
	SrcPod     int   `json:"srcPod"`
	DstPod     int   `json:"dstPod"`
	AtNs       int64 `json:"atNs"`
	DurationNs int64 `json:"durationNs"`
}

// CaptureWith runs the given workloads sequentially on a fresh cluster
// built from spec, tapping every flow, and reduces the capture into a
// TraceSet: one Run per MapReduce round, with cluster-wide heartbeat
// traffic in Background. This is the toolchain's measurement stage; opts
// adds failure injection and other session behaviour, and its zero
// value runs a plain session.
func CaptureWith(spec ClusterSpec, runSpecs []workload.RunSpec, opts CaptureOpts) (*TraceSet, []workload.RunResult, error) {
	spec = spec.withDefaults()
	if spec.Pods > 1 {
		return captureMultiPod(spec, runSpecs, opts)
	}
	if len(opts.InterPodFaults) > 0 {
		return nil, nil, fmt.Errorf("core: inter-pod faults need a multi-pod capture (pods=%d)", spec.Pods)
	}
	wallStart := time.Now()
	cluster, err := spec.BuildCluster()
	if err != nil {
		return nil, nil, fmt.Errorf("build cluster: %w", err)
	}
	// Pre-size the network's flow storage (and the engine's event slab)
	// from the workload profiles' predicted peak concurrency, so the
	// steady-state capture loop allocates nothing.
	cluster.Net.Reserve(workload.EstimatePeakFlows(
		runSpecs, len(cluster.Workers()), spec.SlotsPerNode, spec.Replication))
	cluster.AttachTelemetry(opts.Telemetry)
	for _, f := range opts.Failures {
		workers := cluster.Workers()
		if f.WorkerIndex < 0 || f.WorkerIndex >= len(workers) {
			return nil, nil, fmt.Errorf("core: failure worker index %d out of range", f.WorkerIndex)
		}
		if err := cluster.FailWorker(workers[f.WorkerIndex], sim.Time(f.AtNs)); err != nil {
			return nil, nil, fmt.Errorf("schedule failure: %w", err)
		}
	}
	if err := faults.Inject(cluster, opts.Faults); err != nil {
		return nil, nil, fmt.Errorf("schedule faults: %w", err)
	}
	truth := attachTruth(cluster.Net)
	var checker *invariants.Checker
	if opts.StrictChecks || invariants.BuildEnabled {
		var tracer *telemetry.Tracer
		if opts.Telemetry != nil {
			tracer = opts.Telemetry.Trace
		}
		checker = invariants.Attach(cluster, tracer)
	}
	var probe *netsim.UtilizationProbe
	if tel := opts.Telemetry; tel != nil && tel.Links != nil {
		probe = netsim.NewUtilizationProbe(cluster.Net, nil, sim.Time(tel.Links.IntervalNs))
		probe.AttachTimeline(tel.Links)
	}

	results := make([]workload.RunResult, 0, len(runSpecs))
	// Run workloads strictly one after another so each run's traffic is
	// cleanly attributable (the paper isolates jobs the same way).
	var launch func(i int) error
	launch = func(i int) error {
		if i == len(runSpecs) {
			return nil
		}
		rs := runSpecs[i]
		if rs.JobName == "" {
			rs.JobName = fmt.Sprintf("%s%d", rs.Profile, i)
		}
		return workload.Run(cluster, rs, i, func(res workload.RunResult) {
			results = append(results, res)
			if err := launch(i + 1); err != nil {
				panic(fmt.Sprintf("core: launch run %d: %v", i+1, err))
			}
		})
	}
	if err := launch(0); err != nil {
		return nil, nil, fmt.Errorf("launch first run: %w", err)
	}
	if probe != nil {
		probe.Start()
	}
	end, err := cluster.RunToIdle()
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: %w", err)
	}
	if checker != nil {
		faultFree := len(opts.Failures) == 0 && len(opts.Faults.Faults) == 0
		if err := checker.Final(faultFree); err != nil {
			return nil, nil, err
		}
	}
	if tel := opts.Telemetry; tel != nil {
		tel.Core.Captures.Inc()
		tel.Core.CaptureSimNs.SetMax(float64(end))
		tel.Core.CaptureWallMs.Add(float64(time.Since(wallStart).Milliseconds()))
		tel.Trace.Add(telemetry.Span{Cat: "core", Name: "capture", Attr: spec.Topology, EndNs: int64(end)})
	}

	ts, err := reduceCapture(spec, truth.Truth(), results)
	if err != nil {
		return nil, nil, err
	}
	ts.Stats = CaptureStats{
		ReReplicatedBytes:  cluster.FS.ReReplicatedBytes,
		ReReplicatedBlocks: cluster.FS.ReReplicatedBlocks,
		LostContainers:     cluster.RM.LostContainers,
		LostBlocks:         cluster.FS.LostBlocks,
		PipelineRecoveries: cluster.FS.PipelineRecoveries,
		ReadRetries:        cluster.FS.ReadRetries,
		AbortedFlows:       int64(cluster.Net.AbortedFlows()),
	}
	return ts, results, nil
}

// attachTruth taps net with the ground-truth recorder a capture or replay
// reduces: a FlowLog, which reads no rate history, so the network records
// none. It is the one place core attaches a tap (strict mode's packet
// capture belongs to the invariants checker).
func attachTruth(net *netsim.Network) *pcap.FlowLog {
	truth := pcap.NewFlowLog()
	net.AddTap(truth)
	if alsoCapturePackets {
		net.AddTap(pcap.NewCapture())
	}
	return truth
}

// alsoCapturePackets, set only by tests, attaches a packet capture beside
// every truth log, turning rate-history recording on, to show that
// recording changes no record.
var alsoCapturePackets bool

// reduceCapture groups ground-truth flow records into per-job Runs plus
// cluster background traffic.
func reduceCapture(spec ClusterSpec, records []pcap.FlowRecord, results []workload.RunResult) (*TraceSet, error) {
	groups := flows.GroupByJob(records)
	ts := &TraceSet{BackgroundHosts: spec.Workers}

	// Background: cluster-wide heartbeats (yarn/*, hdfs/*) plus the
	// inter-pod copy traffic of multi-pod sessions (distcp/*).
	for _, key := range []string{"yarn", "hdfs", "distcp"} {
		if g, ok := groups[key]; ok {
			ts.Background = append(ts.Background, g.Records...)
		}
	}
	if len(ts.Background) > 0 {
		first, last := flows.NewDataset(ts.Background).Span()
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
				BlockSize:   blockSizeOr(spec.BlockSize),
				Replication: replicationOr(spec.Replication),
				Hosts:       spec.Workers,
				StartNs:     int64(round.Submitted),
				EndNs:       int64(round.Finished),
				Records:     g.Records,
			})
		}
	}
	return ts, nil
}

func blockSizeOr(v int64) int64 {
	if v <= 0 {
		return 128 << 20
	}
	return v
}

func replicationOr(v int) int {
	if v <= 0 {
		return 3
	}
	return v
}
