package telemetry

import "strconv"

// The metric catalog: one value struct per instrumented layer. The zero
// value of each struct holds nil instruments, so a layer that was never
// attached pays only a nil check per hook — that is the disabled path.

// SimMetrics instruments the discrete-event engine.
type SimMetrics struct {
	// Events counts processed events.
	Events *Counter
	// HeapDepthMax tracks the event queue's high-water mark.
	HeapDepthMax *Gauge
}

// ShardMetrics instruments the sharded window scheduler multi-pod
// captures run on. Windows and BoundaryEvents are deterministic — by
// construction identical at any shard count and any GOMAXPROCS — so they
// live in the deterministic snapshot. StallMs and the per-shard
// ShardEvents/ShardBusyMs gauges depend on wall clock and shard layout
// and are volatile: Prometheus-only, never in the JSON snapshot, so a
// sharded capture's exported telemetry stays byte-identical to the
// serial engine's.
type ShardMetrics struct {
	Windows        *Counter // conservative windows executed
	BoundaryEvents *Counter // cross-shard events merged at barriers
	StallMs        *Gauge   // volatile: cumulative barrier wait across shards
	CritPathMs     *Gauge   // volatile: per-window max shard busy time, summed (parallel critical path)
	ShardEvents    []*Gauge // volatile, labeled shard=i: events processed per shard
	ShardBusyMs    []*Gauge // volatile, labeled shard=i: wall time inside windows per shard
}

// NetMetrics instruments the flow-level network simulator.
type NetMetrics struct {
	FlowsStarted    *Counter
	FlowsCompleted  *Counter
	FlowsAborted    *Counter
	Reallocs        *Counter // max-min reallocation passes
	Reroutes        *Counter // flows moved to an alternate path after a link fault
	LinkTransitions *Counter // SetLinkState up/down changes
	ActiveFlowsMax  *Gauge
	FlowBytes       *Histogram

	// TCP transport instruments; only move when Config.Transport is "tcp".
	TCPFastRetransmits *Counter // loss recoveries without an RTO stall
	TCPTimeouts        *Counter // retransmission timeouts fired
	TCPCwndMaxBytes    *Gauge   // congestion-window high-water mark
	TCPQueueMaxBytes   *Gauge   // droptail queue-depth high-water mark
}

// HDFSMetrics instruments the simulated DFS.
type HDFSMetrics struct {
	BlocksWritten      *Counter
	BlocksRead         *Counter
	BytesWritten       *Counter
	BytesRead          *Counter
	Heartbeats         *Counter
	PipelineRecoveries *Counter
	ReadRetries        *Counter
	ReReplicatedBlocks *Counter
	ReReplicatedBytes  *Counter
	LostBlocks         *Counter
	DNCrashes          *Counter
	DNRejoins          *Counter
}

// YarnMetrics instruments the resource manager.
type YarnMetrics struct {
	NMHeartbeats      *Counter
	AMHeartbeats      *Counter
	ContainersGranted *Counter
	ContainersLocal   *Counter
	ContainersLost    *Counter
	NodeExpiries      *Counter
	NodeRejoins       *Counter
	QueueDepthMax     *Gauge
}

// MRMetrics instruments the MapReduce runtime. The simulator runs no
// speculative attempts, so nothing updates MapsSpeculative; it stays
// registered because every counter is in the snapshot, so removing one
// would change every recorded digest.
type MRMetrics struct {
	JobsSubmitted      *Counter
	JobsCompleted      *Counter
	JobsFailed         *Counter
	MapAttempts        *Counter
	MapsCompleted      *Counter
	MapsReexecuted     *Counter
	MapsSpeculative    *Counter
	ReduceAttempts     *Counter
	ReducersReexecuted *Counter
	ShuffleFetches     *Counter
	ShuffleRetries     *Counter
	ShuffleBlacklists  *Counter
	AMRestarts         *Counter
}

// FaultMetrics counts injected and healed faults per kind.
type FaultMetrics struct {
	injected map[string]*Counter
	healed   map[string]*Counter
}

// Injected returns the injected-faults counter for kind (nil, hence a
// no-op, when the metrics were never built or the kind is unknown).
func (m FaultMetrics) Injected(kind string) *Counter { return m.injected[kind] }

// Healed returns the healed-faults counter for kind.
func (m FaultMetrics) Healed(kind string) *Counter { return m.healed[kind] }

// ServeMetrics instruments the keddah-serve streaming daemon: request
// admission, load shedding, stream lifecycle and model-cache traffic.
// Queue/active gauges are live values; the *Max gauges are monotone
// high-water marks (SetMax) so a post-run snapshot still shows peaks.
type ServeMetrics struct {
	Requests      *Counter // generation requests received (any outcome)
	Streams       *Counter // streams that ran to completion
	Shed          *Counter // requests shed with 503 (queue full or drain)
	QueueTimeouts *Counter // requests shed after waiting out the queue
	Deadlines     *Counter // streams aborted by per-request deadline
	ClientAborts  *Counter // streams aborted by client disconnect
	Panics        *Counter // generation panics recovered per-request
	BadRequests   *Counter // malformed or invalid specs rejected (400)
	ModelLoads    *Counter // model files loaded into the handle cache
	ModelErrors   *Counter // model loads that failed (negative-cached)
	FlowsStreamed *Counter // synthetic flows written to clients
	BytesStreamed *Counter // encoded bytes written to clients
	QueueDepth    *Gauge   // requests currently waiting for a worker slot
	QueueDepthMax *Gauge   // wait-queue high-water mark
	Active        *Gauge   // streams currently generating/encoding
	ActiveMax     *Gauge   // concurrent-stream high-water mark
	Draining      *Gauge   // 1 while the daemon is draining, else 0
}

// CoreMetrics instruments the capture→fit→generate→validate toolchain.
// The *WallMs gauges are volatile (wall-clock): Prometheus-only, never
// in the deterministic JSON snapshot. No stage updates Generates or
// GenerateWallMs yet; they stay registered because every counter is in
// the snapshot, so removing one would change every recorded digest.
type CoreMetrics struct {
	Captures       *Counter
	Fits           *Counter
	Generates      *Counter
	Validates      *Counter
	Replays        *Counter
	CaptureSimNs   *Gauge // high-water simulated end time across captures
	CaptureWallMs  *Gauge
	FitWallMs      *Gauge
	GenerateWallMs *Gauge
	ValidateWallMs *Gauge
	ReplayWallMs   *Gauge
}

// Telemetry is one observability session: the registry, the full metric
// catalog, the span tracer and (optionally) a link timeline. Share one
// instance across concurrent captures — instruments are atomic and the
// tracer locks — or use one per capture when per-run isolation matters.
type Telemetry struct {
	Reg   *Registry
	Trace *Tracer
	// Links, when non-nil, asks captures to sample per-link
	// utilisation/flow-count timelines. Enable with EnableLinkTimeline;
	// leave nil when several captures share this session (their
	// simulated clocks would interleave in one series).
	Links *LinkTimeline

	Sim   SimMetrics
	Shard ShardMetrics
	Net   NetMetrics
	HDFS  HDFSMetrics
	Yarn  YarnMetrics
	MR    MRMetrics
	Fault FaultMetrics
	Core  CoreMetrics
	Serve ServeMetrics
}

// FaultKinds are the fault kinds pre-registered by New. Kept as strings
// so telemetry does not import the faults package.
var FaultKinds = []string{"linkDown", "linkDegrade", "nodeCrash"}

// New builds a telemetry session with the full metric catalog
// registered. Flow-size histogram buckets are powers of four from 256 B
// to 4 GiB.
func New() *Telemetry {
	r := NewRegistry()
	t := &Telemetry{Reg: r, Trace: NewTracer(0)}

	t.Sim = SimMetrics{
		Events:       r.Counter("keddah_sim_events_total", "Discrete events processed."),
		HeapDepthMax: r.Gauge("keddah_sim_heap_depth_max", "Event queue high-water mark."),
	}

	t.Shard = ShardMetrics{
		Windows:        r.Counter("keddah_sim_shard_windows_total", "Conservative windows executed by the sharded scheduler."),
		BoundaryEvents: r.Counter("keddah_sim_shard_boundary_events_total", "Cross-shard events merged at window barriers."),
		StallMs:        r.VolatileGauge("keddah_sim_shard_stall_ms", "Cumulative barrier wait across shards (ms)."),
		CritPathMs:     r.VolatileGauge("keddah_sim_shard_crit_ms", "Parallel critical path: per-window max shard busy time, summed (ms)."),
	}

	var flowBounds []float64
	for b := float64(256); b <= float64(4)*(1<<30); b *= 4 {
		flowBounds = append(flowBounds, b)
	}
	t.Net = NetMetrics{
		FlowsStarted:    r.Counter("keddah_net_flows_started_total", "Flows admitted to the network."),
		FlowsCompleted:  r.Counter("keddah_net_flows_completed_total", "Flows that delivered all bytes."),
		FlowsAborted:    r.Counter("keddah_net_flows_aborted_total", "Flows aborted by faults or timeouts."),
		Reallocs:        r.Counter("keddah_net_reallocs_total", "Bandwidth reallocation passes."),
		Reroutes:        r.Counter("keddah_net_reroutes_total", "Flows rerouted after link state changes."),
		LinkTransitions: r.Counter("keddah_net_link_transitions_total", "Link up/down state changes."),
		ActiveFlowsMax:  r.Gauge("keddah_net_active_flows_max", "Concurrent flow high-water mark."),
		FlowBytes:       r.Histogram("keddah_net_flow_bytes", "Completed flow sizes in bytes.", flowBounds),

		TCPFastRetransmits: r.Counter("keddah_net_tcp_fast_retransmits_total", "TCP loss recoveries via fast retransmit."),
		TCPTimeouts:        r.Counter("keddah_net_tcp_rto_fired_total", "TCP retransmission timeouts fired."),
		TCPCwndMaxBytes:    r.Gauge("keddah_net_tcp_cwnd_max_bytes", "TCP congestion-window high-water mark."),
		TCPQueueMaxBytes:   r.Gauge("keddah_net_tcp_queue_depth_max_bytes", "Droptail queue-depth high-water mark."),
	}

	t.HDFS = HDFSMetrics{
		BlocksWritten:      r.Counter("keddah_hdfs_blocks_written_total", "Blocks fully written through pipelines."),
		BlocksRead:         r.Counter("keddah_hdfs_blocks_read_total", "Block reads completed."),
		BytesWritten:       r.Counter("keddah_hdfs_bytes_written_total", "Bytes written (per replica hop payload counted once)."),
		BytesRead:          r.Counter("keddah_hdfs_bytes_read_total", "Bytes read from DataNodes."),
		Heartbeats:         r.Counter("keddah_hdfs_heartbeats_total", "DataNode heartbeats sent."),
		PipelineRecoveries: r.Counter("keddah_hdfs_pipeline_recoveries_total", "Write pipelines rebuilt after a DataNode loss."),
		ReadRetries:        r.Counter("keddah_hdfs_read_retries_total", "Block read attempts retried on another replica."),
		ReReplicatedBlocks: r.Counter("keddah_hdfs_rereplicated_blocks_total", "Blocks re-replicated after node loss."),
		ReReplicatedBytes:  r.Counter("keddah_hdfs_rereplicated_bytes_total", "Bytes moved by re-replication."),
		LostBlocks:         r.Counter("keddah_hdfs_lost_blocks_total", "Blocks that lost all replicas."),
		DNCrashes:          r.Counter("keddah_hdfs_dn_crashes_total", "DataNode crash events."),
		DNRejoins:          r.Counter("keddah_hdfs_dn_rejoins_total", "DataNode rejoin (re-registration) events."),
	}

	t.Yarn = YarnMetrics{
		NMHeartbeats:      r.Counter("keddah_yarn_nm_heartbeats_total", "NodeManager heartbeats."),
		AMHeartbeats:      r.Counter("keddah_yarn_am_heartbeats_total", "ApplicationMaster heartbeats."),
		ContainersGranted: r.Counter("keddah_yarn_containers_granted_total", "Containers allocated."),
		ContainersLocal:   r.Counter("keddah_yarn_containers_local_total", "Containers allocated data-local."),
		ContainersLost:    r.Counter("keddah_yarn_containers_lost_total", "Containers lost to node failures."),
		NodeExpiries:      r.Counter("keddah_yarn_node_expiries_total", "NodeManagers declared lost by heartbeat expiry."),
		NodeRejoins:       r.Counter("keddah_yarn_node_rejoins_total", "NodeManagers re-registered after a crash."),
		QueueDepthMax:     r.Gauge("keddah_yarn_queue_depth_max", "Scheduler request-queue high-water mark."),
	}

	t.MR = MRMetrics{
		JobsSubmitted:      r.Counter("keddah_mr_jobs_submitted_total", "MapReduce jobs submitted."),
		JobsCompleted:      r.Counter("keddah_mr_jobs_completed_total", "MapReduce jobs completed."),
		JobsFailed:         r.Counter("keddah_mr_jobs_failed_total", "MapReduce jobs aborted."),
		MapAttempts:        r.Counter("keddah_mr_map_attempts_total", "Map task attempts launched."),
		MapsCompleted:      r.Counter("keddah_mr_maps_completed_total", "Map tasks completed."),
		MapsReexecuted:     r.Counter("keddah_mr_maps_reexecuted_total", "Map tasks re-executed after loss or fetch failures."),
		MapsSpeculative:    r.Counter("keddah_mr_maps_speculative_total", "Speculative map attempts launched."),
		ReduceAttempts:     r.Counter("keddah_mr_reduce_attempts_total", "Reduce task attempts launched."),
		ReducersReexecuted: r.Counter("keddah_mr_reducers_reexecuted_total", "Reduce tasks re-executed after container loss."),
		ShuffleFetches:     r.Counter("keddah_mr_shuffle_fetches_total", "Shuffle fetch flows started."),
		ShuffleRetries:     r.Counter("keddah_mr_shuffle_retries_total", "Shuffle fetches retried after aborts."),
		ShuffleBlacklists:  r.Counter("keddah_mr_shuffle_blacklists_total", "Shuffle source hosts blacklisted."),
		AMRestarts:         r.Counter("keddah_mr_am_restarts_total", "ApplicationMaster restarts."),
	}

	t.Fault = FaultMetrics{injected: map[string]*Counter{}, healed: map[string]*Counter{}}
	for _, k := range FaultKinds {
		t.Fault.injected[k] = r.Counter("keddah_faults_injected_total", "Faults injected.", "kind", k)
		t.Fault.healed[k] = r.Counter("keddah_faults_healed_total", "Faults healed (target recovered).", "kind", k)
	}

	t.Core = CoreMetrics{
		Captures:       r.Counter("keddah_core_captures_total", "Capture sessions completed."),
		Fits:           r.Counter("keddah_core_fits_total", "Model fits completed."),
		Generates:      r.Counter("keddah_core_generates_total", "Schedule generations completed."),
		Validates:      r.Counter("keddah_core_validates_total", "Validations completed."),
		Replays:        r.Counter("keddah_core_replays_total", "Schedule replays completed."),
		CaptureSimNs:   r.Gauge("keddah_core_capture_sim_ns", "Longest simulated capture duration (ns)."),
		CaptureWallMs:  r.VolatileGauge("keddah_core_capture_wall_ms", "Wall-clock time spent capturing (ms, cumulative)."),
		FitWallMs:      r.VolatileGauge("keddah_core_fit_wall_ms", "Wall-clock time spent fitting (ms, cumulative)."),
		GenerateWallMs: r.VolatileGauge("keddah_core_generate_wall_ms", "Wall-clock time spent generating (ms, cumulative)."),
		ValidateWallMs: r.VolatileGauge("keddah_core_validate_wall_ms", "Wall-clock time spent validating (ms, cumulative)."),
		ReplayWallMs:   r.VolatileGauge("keddah_core_replay_wall_ms", "Wall-clock time spent replaying (ms, cumulative)."),
	}

	t.Serve = ServeMetrics{
		Requests:      r.Counter("keddah_serve_requests_total", "Generation requests received."),
		Streams:       r.Counter("keddah_serve_streams_total", "Generation streams completed."),
		Shed:          r.Counter("keddah_serve_shed_total", "Requests shed with 503 (queue full or draining)."),
		QueueTimeouts: r.Counter("keddah_serve_queue_timeouts_total", "Requests shed after waiting out the admission queue."),
		Deadlines:     r.Counter("keddah_serve_deadlines_total", "Streams aborted by the per-request deadline."),
		ClientAborts:  r.Counter("keddah_serve_client_aborts_total", "Streams aborted by client disconnect."),
		Panics:        r.Counter("keddah_serve_panics_total", "Generation panics recovered per-request."),
		BadRequests:   r.Counter("keddah_serve_bad_requests_total", "Malformed or invalid generation requests rejected."),
		ModelLoads:    r.Counter("keddah_serve_model_loads_total", "Model files loaded into the handle cache."),
		ModelErrors:   r.Counter("keddah_serve_model_errors_total", "Model loads that failed (negative-cached)."),
		FlowsStreamed: r.Counter("keddah_serve_flows_streamed_total", "Synthetic flows written to clients."),
		BytesStreamed: r.Counter("keddah_serve_bytes_streamed_total", "Encoded bytes written to clients."),
		QueueDepth:    r.Gauge("keddah_serve_queue_depth", "Requests currently waiting for a worker slot."),
		QueueDepthMax: r.Gauge("keddah_serve_queue_depth_max", "Admission wait-queue high-water mark."),
		Active:        r.Gauge("keddah_serve_active_streams", "Streams currently generating or encoding."),
		ActiveMax:     r.Gauge("keddah_serve_active_streams_max", "Concurrent-stream high-water mark."),
		Draining:      r.Gauge("keddah_serve_draining", "1 while the daemon is draining, else 0."),
	}
	return t
}

// ShardSet returns the catalog's shard metrics extended with per-shard
// volatile utilisation gauges for n shards (labels shard="0".."n-1").
// The registry deduplicates instruments, so repeated calls — several
// captures sharing one session — reuse the same gauges.
func (t *Telemetry) ShardSet(n int) ShardMetrics {
	m := t.Shard
	for i := 0; i < n; i++ {
		k := strconv.Itoa(i)
		m.ShardEvents = append(m.ShardEvents,
			t.Reg.VolatileGauge("keddah_sim_shard_events", "Events processed by this shard.", "shard", k))
		m.ShardBusyMs = append(m.ShardBusyMs,
			t.Reg.VolatileGauge("keddah_sim_shard_busy_ms", "Wall time this shard spent inside windows (ms).", "shard", k))
	}
	return m
}

// EnableLinkTimeline attaches a per-link utilisation timeline, which the
// network's utilisation probe samples every 100 ms of simulated time.
func (t *Telemetry) EnableLinkTimeline() *LinkTimeline {
	t.Links = NewLinkTimeline()
	return t.Links
}

// Snapshot returns the deterministic (volatile-excluded) snapshot.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	return t.Reg.Snapshot(false)
}
