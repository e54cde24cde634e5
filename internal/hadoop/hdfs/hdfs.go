// Package hdfs simulates the Hadoop Distributed File System at the level
// that determines network behaviour: a NameNode with the default block
// placement policy, DataNodes co-located with compute hosts, write
// pipelines that replicate each block across the cluster, and
// locality-aware reads. Every byte HDFS moves is carried as a flow on the
// underlying netsim.Network using the real HDFS port conventions, so
// captured traffic classifies exactly as it would on a physical cluster.
package hdfs

import (
	"errors"
	"fmt"

	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// Hadoop's defaults for the parameters Config holds.
const (
	DefaultBlockSize   int64 = 128 << 20 // dfs.blocksize
	DefaultReplication       = 3         // dfs.replication
)

// Config holds the filesystem-wide parameters the paper varies.
type Config struct {
	// BlockSize is dfs.blocksize (default DefaultBlockSize).
	BlockSize int64
	// Replication is dfs.replication (default DefaultReplication).
	Replication int
}

func (c *Config) applyDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
}

// Fixed daemon timings and sizes. The paper varies none of them.
const (
	// heartbeatInterval is the DataNode→NameNode heartbeat period
	// (dfs.heartbeat.interval).
	heartbeatInterval sim.Time = 3_000_000_000
	// maxPipelineRetries bounds write-pipeline recovery attempts per hop
	// before the replica is dropped as under-replicated
	// (dfs.client.block.write.retries).
	maxPipelineRetries = 3
	// pipelineRetryBase is the first pipeline-recovery backoff; it
	// doubles per attempt up to a 30 s cap.
	pipelineRetryBase sim.Time = 500_000_000
	// readRetryBase is the first read-retry backoff; it doubles per
	// attempt up to a 30 s cap (dfs.client.retry.window.base).
	readRetryBase sim.Time = 1_000_000_000
)

// Block is one replicated chunk of a file.
type Block struct {
	ID       int64
	Size     int64
	Replicas []netsim.NodeID
}

// file is a namespace entry.
type file struct {
	path     string
	blocks   []Block
	complete bool
	waiters  []func()
}

// Errors callers can match.
var (
	ErrNotFound   = errors.New("hdfs: file not found")
	ErrExists     = errors.New("hdfs: file already exists")
	ErrIncomplete = errors.New("hdfs: file still being written")
)

// FS is the simulated filesystem: one NameNode plus a DataNode on every
// listed host.
type FS struct {
	cfg       Config
	net       *netsim.Network
	eng       *sim.Engine
	rng       *stats.RNG
	namenode  netsim.NodeID
	datanodes []netsim.NodeID
	files     map[string]*file
	nextBlock int64
	stopped   bool
	dead      map[netsim.NodeID]bool
	// epoch counts life transitions per DataNode; a pending failure
	// detection only fires if the node's epoch is unchanged, so a crashed
	// node that rejoins before detection is never re-replicated.
	epoch map[netsim.NodeID]int
	// lastEpochCheck snapshots epoch between invariant checks to assert
	// monotonicity (lazily allocated by VerifyInvariants).
	lastEpochCheck map[int64]int
	// pendingRepl tracks in-flight re-replication targets per block — the
	// NameNode's PendingReplicationBlocks role — so overlapping failure
	// detections never copy the same block to the same target twice.
	pendingRepl map[*Block]map[netsim.NodeID]bool

	// Stats.
	BytesWritten       int64
	BytesRead          int64
	LocalReads         int64
	RemoteReads        int64
	ReReplicatedBytes  int64
	ReReplicatedBlocks int64
	LostBlocks         int64
	UnderReplicated    int64
	PipelineRecoveries int64
	ReadRetries        int64

	metrics telemetry.HDFSMetrics
	tracer  *telemetry.Tracer
}

// SetTelemetry attaches filesystem instrumentation (zero-value metrics
// and a nil tracer detach it).
func (fs *FS) SetTelemetry(m telemetry.HDFSMetrics, tr *telemetry.Tracer) {
	fs.metrics = m
	fs.tracer = tr
}

// New creates an FS. The namenode must be a host in the network; every
// datanode host stores blocks and serves reads.
func New(net *netsim.Network, namenode netsim.NodeID, datanodes []netsim.NodeID, cfg Config, rng *stats.RNG) (*FS, error) {
	cfg.applyDefaults()
	if len(datanodes) == 0 {
		return nil, errors.New("hdfs: need at least one datanode")
	}
	if cfg.Replication > len(datanodes) {
		return nil, fmt.Errorf("hdfs: replication %d exceeds %d datanodes", cfg.Replication, len(datanodes))
	}
	dns := make([]netsim.NodeID, len(datanodes))
	copy(dns, datanodes)
	return &FS{
		cfg:         cfg,
		net:         net,
		eng:         net.Engine(),
		rng:         rng,
		namenode:    namenode,
		datanodes:   dns,
		files:       make(map[string]*file),
		dead:        make(map[netsim.NodeID]bool),
		epoch:       make(map[netsim.NodeID]int),
		pendingRepl: make(map[*Block]map[netsim.NodeID]bool),
	}, nil
}

// Network returns the network the filesystem transfers over.
func (fs *FS) Network() *netsim.Network { return fs.net }

// DataNodes returns the DataNode host set.
func (fs *FS) DataNodes() []netsim.NodeID {
	out := make([]netsim.NodeID, len(fs.datanodes))
	copy(out, fs.datanodes)
	return out
}

// StartHeartbeats launches the periodic DataNode→NameNode heartbeat
// control flows. They stop after Shutdown.
func (fs *FS) StartHeartbeats() {
	for _, dn := range fs.datanodes {
		fs.startHeartbeat(dn)
	}
}

// startHeartbeat begins dn's heartbeat loop after a jittered first beat,
// so DataNodes don't synchronise. The loop belongs to dn's current
// epoch: it ends at Shutdown or once dn dies or rejoins, so a node that
// crashes and rejoins within one interval runs only the new loop.
func (fs *FS) startHeartbeat(dn netsim.NodeID) {
	jitter := sim.Time(fs.rng.Float64() * float64(heartbeatInterval))
	e := fs.epoch[dn]
	fs.eng.Every(jitter, heartbeatInterval, func() bool {
		if fs.stopped || fs.dead[dn] || fs.epoch[dn] != e {
			return false
		}
		if dn != fs.namenode {
			fs.metrics.Heartbeats.Inc()
			fs.control(dn, fs.namenode, flows.PortNameNodeRPC, "hdfs/heartbeat")
		}
		return true
	})
}

// Shutdown stops heartbeat rescheduling so the event queue can drain.
func (fs *FS) Shutdown() { fs.stopped = true }

func (fs *FS) control(src, dst netsim.NodeID, port int, label string) {
	flows.SendControl(fs.net, fs.rng, src, dst, port, label)
}

// choosePipeline implements the default HDFS placement policy:
// first replica on the writer (when it is a live DataNode), second on a
// different rack, third on the same rack as the second, extras random.
// With too few live DataNodes the pipeline comes back short (an
// under-replicated write, as HDFS permits) or empty.
func (fs *FS) choosePipeline(writer netsim.NodeID, n int) []netsim.NodeID {
	topo := fs.net.Topology()
	used := make(map[netsim.NodeID]bool, n)
	pipeline := make([]netsim.NodeID, 0, n)

	add := func(id netsim.NodeID) bool {
		if id < 0 {
			return false
		}
		pipeline = append(pipeline, id)
		used[id] = true
		return true
	}

	first := writer
	if !fs.isDataNode(writer) || fs.dead[writer] {
		first = fs.randomDN(used, nil)
	}
	if !add(first) || len(pipeline) >= n {
		return pipeline
	}

	// Second replica: prefer a different rack from the first.
	firstRack := topo.Rack(pipeline[0])
	second := fs.randomDN(used, func(id netsim.NodeID) bool { return topo.Rack(id) != firstRack })
	if second < 0 {
		second = fs.randomDN(used, nil)
	}
	if !add(second) || len(pipeline) >= n {
		return pipeline
	}

	// Third replica: same rack as the second, different node.
	secondRack := topo.Rack(pipeline[1])
	third := fs.randomDN(used, func(id netsim.NodeID) bool { return topo.Rack(id) == secondRack })
	if third < 0 {
		third = fs.randomDN(used, nil)
	}
	if !add(third) {
		return pipeline
	}

	for len(pipeline) < n {
		if !add(fs.randomDN(used, nil)) {
			break
		}
	}
	return pipeline
}

// randomDN picks a uniform unused live DataNode satisfying pred (nil
// for any), or -1 when none does.
func (fs *FS) randomDN(used map[netsim.NodeID]bool, pred func(netsim.NodeID) bool) netsim.NodeID {
	var candidates []netsim.NodeID
	for _, dn := range fs.datanodes {
		if !used[dn] && !fs.dead[dn] && (pred == nil || pred(dn)) {
			candidates = append(candidates, dn)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[fs.rng.Intn(len(candidates))]
}
