// Package hadoop assembles the simulated cluster: one master host running
// the NameNode and ResourceManager, worker hosts each running a DataNode
// and NodeManager, all over a shared netsim.Network — the testbed the
// Keddah toolchain captures from.
package hadoop

import (
	"errors"
	"fmt"
	"slices"

	"keddah/internal/hadoop/hdfs"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/hadoop/yarn"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// Config assembles a cluster over an existing topology.
type Config struct {
	HDFS hdfs.Config
	YARN yarn.Config
	// Net tunes the underlying network simulator.
	Net netsim.Config
	// Engine, when non-nil, hosts the cluster's events instead of a
	// fresh private engine. Multi-pod captures place several clusters on
	// the shards of one sim.ShardedEngine this way; everything the
	// cluster schedules stays on the given engine.
	Engine *sim.Engine
	// Seed drives every stochastic choice in the cluster; equal seeds
	// give byte-identical traffic.
	Seed int64
}

// Cluster is a ready-to-run simulated Hadoop deployment.
type Cluster struct {
	Eng     *sim.Engine
	Net     *netsim.Network
	FS      *hdfs.FS
	RM      *yarn.RM
	rng     *stats.RNG
	master  netsim.NodeID
	workers []netsim.NodeID
	pending int
	started bool
	tel     *telemetry.Telemetry
	jobs    []*mapreduce.Job
	// stepCheck, when set, runs after every event RunToIdle processes;
	// a non-nil error aborts the run (the invariant-checking hook).
	stepCheck func() error
}

// SetStepCheck installs a hook run after every event processed by
// RunToIdle. The invariants layer uses it to sample cross-layer checks;
// a returned error stops the run and is propagated to the caller.
func (c *Cluster) SetStepCheck(fn func() error) { c.stepCheck = fn }

// Jobs returns every MapReduce job submitted to the cluster, in
// submission order (live and finished alike).
func (c *Cluster) Jobs() []*mapreduce.Job {
	out := make([]*mapreduce.Job, len(c.jobs))
	copy(out, c.jobs)
	return out
}

// AttachTelemetry wires instrumentation through every cluster layer:
// engine event counts, network flow metrics, HDFS and YARN counters and
// spans, and (via Submit) per-job MapReduce metrics. Attach before
// submitting work; a nil receiver or nil argument is a no-op.
func (c *Cluster) AttachTelemetry(t *telemetry.Telemetry) {
	if c == nil || t == nil {
		return
	}
	c.tel = t
	c.Eng.SetMetrics(t.Sim)
	c.Net.SetMetrics(t.Net)
	c.FS.SetTelemetry(t.HDFS, t.Trace)
	c.RM.SetTelemetry(t.Yarn, t.Trace)
}

// Telemetry returns the attached instrumentation, or nil.
func (c *Cluster) Telemetry() *telemetry.Telemetry { return c.tel }

// New builds a cluster on topo: the first host is the master (NameNode +
// ResourceManager), the rest are workers (DataNode + NodeManager each).
func New(topo *netsim.Topology, cfg Config) (*Cluster, error) {
	hosts := topo.Hosts()
	if len(hosts) < 2 {
		return nil, errors.New("hadoop: need a master and at least one worker host")
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sim.New()
	}
	net := netsim.NewNetwork(eng, topo, cfg.Net)
	rng := stats.NewRNG(cfg.Seed)

	master := hosts[0]
	workers := hosts[1:]

	fs, err := hdfs.New(net, master, workers, cfg.HDFS, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("hadoop: hdfs: %w", err)
	}
	rm, err := yarn.New(net, master, workers, cfg.YARN, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("hadoop: yarn: %w", err)
	}
	return &Cluster{
		Eng:     eng,
		Net:     net,
		FS:      fs,
		RM:      rm,
		rng:     rng,
		master:  master,
		workers: workers,
	}, nil
}

// Master returns the master host.
func (c *Cluster) Master() netsim.NodeID { return c.master }

// Workers returns the worker hosts.
func (c *Cluster) Workers() []netsim.NodeID {
	out := make([]netsim.NodeID, len(c.workers))
	copy(out, c.workers)
	return out
}

// RNG returns a fresh child RNG stream for callers that need one.
func (c *Cluster) RNG() *stats.RNG { return c.rng.Fork() }

// Pending returns how many submitted ingests and jobs have not completed
// yet. The multi-pod window scheduler polls it at barriers, where the
// serial loop below would have checked it per event.
func (c *Cluster) Pending() int { return c.pending }

// Start launches the heartbeat machinery without entering the serial run
// loop — multi-pod captures start every pod, then advance all of them
// together through the sharded scheduler's windows.
func (c *Cluster) Start() { c.start() }

// start launches the periodic heartbeat machinery exactly once.
func (c *Cluster) start() {
	if c.started {
		return
	}
	c.started = true
	c.FS.StartHeartbeats()
	c.RM.Start()
}

// Ingest loads a dataset into HDFS from the master gateway (the write
// replicates through normal pipelines, generating the load-time traffic
// the paper observes). Completion is tracked like a job for RunToIdle.
func (c *Cluster) Ingest(path string, size int64, done func()) error {
	c.pending++
	err := c.FS.WriteFile(c.master, path, size, 0, "ingest", func([]hdfs.Block) {
		c.pending--
		if done != nil {
			done()
		}
	})
	if err != nil {
		c.pending--
		return err
	}
	return nil
}

// Submit queues a MapReduce job from the master gateway. done receives
// the job result.
func (c *Cluster) Submit(cfg mapreduce.JobConfig, done func(mapreduce.Result)) error {
	job, err := mapreduce.NewJob(cfg, c.FS, c.RM, c.rng.Fork())
	if err != nil {
		return err
	}
	if c.tel != nil {
		job.SetTelemetry(c.tel.MR, c.tel.Trace)
	}
	c.jobs = append(c.jobs, job)
	c.pending++
	return job.Submit(c.master, func(r mapreduce.Result) {
		c.pending--
		if done != nil {
			done(r)
		}
	})
}

// validWorker rejects failure targets that are not cluster workers up
// front, so a bad schedule errors at injection time instead of panicking
// inside an event.
func (c *Cluster) validWorker(host netsim.NodeID) error {
	if host == c.master {
		return errors.New("hadoop: failing the master is not modelled")
	}
	if !slices.Contains(c.workers, host) {
		return fmt.Errorf("hadoop: host %d is not a cluster worker", host)
	}
	return nil
}

// FailWorker schedules a whole-worker failure (DataNode + NodeManager) at
// simulated time t: running containers are lost and re-executed by their
// jobs, and the NameNode re-replicates the node's blocks — the failure
// traffic a capture of a degraded cluster contains. Failing an
// already-failed worker is a clean no-op, and scheduling a failure before
// any job is submitted is safe (the cluster just starts degraded).
func (c *Cluster) FailWorker(host netsim.NodeID, at sim.Time) error {
	if err := c.validWorker(host); err != nil {
		return err
	}
	_, err := c.Eng.At(at, func() {
		if err := c.FS.FailDataNode(host); err != nil {
			panic(fmt.Sprintf("hadoop: fail datanode: %v", err))
		}
		if err := c.RM.FailNode(host); err != nil {
			panic(fmt.Sprintf("hadoop: fail nodemanager: %v", err))
		}
	})
	return err
}

// CrashWorker schedules a transient whole-worker crash at `at` with
// rejoin at recoverAt: the host drops off the network (its access links
// go down, resetting every connection it was serving), its DataNode and
// NodeManager stop, and the cluster *detects* the loss through the
// substrates' own timers — the HDFS re-replication delay and the YARN
// NodeManager expiry — rather than an oracle. At recoverAt the links come back and the
// daemons re-register (block report, NM registration) and rejoin.
func (c *Cluster) CrashWorker(host netsim.NodeID, at, recoverAt sim.Time) error {
	if err := c.validWorker(host); err != nil {
		return err
	}
	if recoverAt <= at {
		return fmt.Errorf("hadoop: crash recovery at %v not after crash at %v", recoverAt, at)
	}
	links := c.accessLinks(host)
	if _, err := c.Eng.At(at, func() {
		// Daemon state first so fault-recovery paths triggered by the
		// aborts below already see the node as dead.
		if err := c.FS.CrashDataNode(host); err != nil {
			panic(fmt.Sprintf("hadoop: crash datanode: %v", err))
		}
		if err := c.RM.CrashNode(host); err != nil {
			panic(fmt.Sprintf("hadoop: crash nodemanager: %v", err))
		}
		for _, lid := range links {
			if err := c.Net.SetLinkState(lid, false); err != nil {
				panic(fmt.Sprintf("hadoop: crash link down: %v", err))
			}
		}
	}); err != nil {
		return err
	}
	_, err := c.Eng.At(recoverAt, func() {
		// Links first so the re-registration flows have routes.
		for _, lid := range links {
			if err := c.Net.SetLinkState(lid, true); err != nil {
				panic(fmt.Sprintf("hadoop: crash link up: %v", err))
			}
		}
		if err := c.FS.RecoverDataNode(host); err != nil {
			panic(fmt.Sprintf("hadoop: recover datanode: %v", err))
		}
		if err := c.RM.RecoverNode(host); err != nil {
			panic(fmt.Sprintf("hadoop: recover nodemanager: %v", err))
		}
	})
	return err
}

// accessLinks returns every directed link touching host.
func (c *Cluster) accessLinks(host netsim.NodeID) []netsim.LinkID {
	var out []netsim.LinkID
	for lid, l := range c.Net.Topology().Links() {
		if l.From == host || l.To == host {
			out = append(out, netsim.LinkID(lid))
		}
	}
	return out
}

// RunToIdle starts the cluster, runs the event loop until every pending
// ingest and job has completed, shuts the periodic machinery down, and
// drains remaining events. It returns the simulated completion time.
func (c *Cluster) RunToIdle() (sim.Time, error) {
	c.start()
	for c.pending > 0 {
		if !c.Eng.Step() {
			// Step refuses with events still queued only once the
			// engine's MaxEvents budget is spent.
			if c.Eng.Pending() > 0 {
				return c.Eng.Now(), fmt.Errorf("hadoop: %w with %d tasks pending", sim.ErrHorizon, c.pending)
			}
			return c.Eng.Now(), fmt.Errorf("hadoop: event queue drained with %d tasks pending", c.pending)
		}
		if c.stepCheck != nil {
			if err := c.stepCheck(); err != nil {
				return c.Eng.Now(), err
			}
		}
	}
	end := c.Eng.Now()
	c.FS.Shutdown()
	c.RM.Shutdown()
	if _, err := c.Eng.RunAll(); err != nil {
		return end, fmt.Errorf("hadoop: drain: %w", err)
	}
	return end, nil
}
