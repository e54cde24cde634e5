// Package yarn simulates the Hadoop 2.x resource layer: a ResourceManager,
// one NodeManager per host with a fixed container capacity, periodic
// NM→RM and AM→RM heartbeat control flows, a FIFO scheduler with delay
// scheduling for data locality, and NodeManager failure with container
// loss notification. Its observable output is (a) where and when
// containers run — which determines HDFS and shuffle flow endpoints —
// and (b) the control-plane traffic Keddah classifies.
package yarn

import (
	"errors"
	"fmt"

	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// DefaultSlotsPerNode is the container capacity of a NodeManager whose
// Config leaves SlotsPerNode unset.
const DefaultSlotsPerNode = 4

// Config holds the resource-layer parameters.
type Config struct {
	// SlotsPerNode is the concurrent container capacity of each
	// NodeManager (default DefaultSlotsPerNode).
	SlotsPerNode int
	// LocalityWait is how long a request holds out for a preferred host
	// before accepting any host (default 3s — three scheduling rounds).
	LocalityWait sim.Time
}

func (c *Config) applyDefaults() {
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = DefaultSlotsPerNode
	}
	if c.LocalityWait <= 0 {
		c.LocalityWait = 3_000_000_000
	}
}

// Fixed daemon timings and sizes. The paper varies none of them.
const (
	// nmHeartbeat is the NodeManager heartbeat period
	// (yarn.resourcemanager.nodemanagers.heartbeat-interval-ms).
	nmHeartbeat sim.Time = 1_000_000_000
	// amHeartbeat is the ApplicationMaster allocate-loop period
	// (yarn.app.mapreduce.am.scheduler.heartbeat.interval-ms).
	amHeartbeat sim.Time = 1_000_000_000
	// containerLaunchDelay models localization + JVM start.
	containerLaunchDelay sim.Time = 800_000_000
	// nmExpiry is how long the RM waits without NodeManager heartbeats
	// before declaring the node lost
	// (yarn.nm.liveness-monitor.expiry-interval-ms). Real YARN waits
	// 10 min; 10 s keeps detection within job timescales, as HDFS's
	// re-replication delay does.
	nmExpiry sim.Time = 10_000_000_000
)

// nodeManager tracks one host's container slots.
type nodeManager struct {
	host netsim.NodeID
	used int
	// dead marks a node the RM has declared lost (instant FailNode or
	// heartbeat expiry); crashed marks a node whose NM process is down
	// but not yet detected — it stops heartbeating and picking up work,
	// while the RM still counts its state as live.
	dead    bool
	crashed bool
	// crashedAt is when the current crash began (valid while crashed);
	// invariant checks use it to bound detection latency by nmExpiry.
	crashedAt sim.Time
	// epoch counts life transitions; a pending expiry only fires, and a
	// heartbeat loop only keeps beating, while the node's epoch is
	// unchanged, so crash→recover→crash sequences each get their own
	// detection timer and their own heartbeat loop.
	epoch      int
	containers []*Container
}

// Priority orders container requests; lower values win. MapReduce uses
// PriorityMap for map tasks and PriorityReduce for reducers so maps are
// never starved by waiting reducers (mirroring the RMContainerAllocator).
type Priority int

// Request priorities in scheduling order.
const (
	PriorityAM     Priority = 0
	PriorityMap    Priority = 1
	PriorityReduce Priority = 2
)

// ContainerRequest asks for one container, optionally preferring hosts
// where the task's data lives.
type ContainerRequest struct {
	app       *App
	priority  Priority
	preferred map[netsim.NodeID]bool
	submitted sim.Time
	assign    func(c *Container)
	cancelled bool
}

// Container is a granted execution slot on one host. The owner runs its
// task, registers a loss handler (fired if the host fails while the
// container runs), and releases the slot when done.
type Container struct {
	app       *App
	nm        *nodeManager
	req       *ContainerRequest
	onLost    func()
	released  bool
	lost      bool
	delivered bool
}

// Host returns the node the container runs on.
func (c *Container) Host() netsim.NodeID { return c.nm.host }

// Lost reports whether the container's host failed while it was running.
func (c *Container) Lost() bool { return c.lost }

// OnLost registers the handler fired if the container's host fails.
func (c *Container) OnLost(fn func()) { c.onLost = fn }

// Release frees the slot and pumps the scheduler. Releasing a lost or
// already-released container is a no-op.
func (c *Container) Release() {
	if c.released || c.lost {
		return
	}
	c.released = true
	c.nm.used--
	c.nm.removeContainer(c)
	c.app.running--
	c.app.rm.pump()
}

func (nm *nodeManager) removeContainer(c *Container) {
	for i, other := range nm.containers {
		if other == c {
			nm.containers = append(nm.containers[:i], nm.containers[i+1:]...)
			return
		}
	}
}

// ErrUnknownNode reports an operation on a host with no NodeManager.
var ErrUnknownNode = errors.New("yarn: unknown node")

// RM is the ResourceManager plus the per-host NodeManagers.
type RM struct {
	cfg     Config
	net     *netsim.Network
	eng     *sim.Engine
	rng     *stats.RNG
	rmHost  netsim.NodeID
	nms     []*nodeManager
	nmIndex map[netsim.NodeID]*nodeManager
	queue   []*ContainerRequest
	apps    int
	stopped bool

	// Stats.
	Assigned       int64
	LocalAssigned  int64
	LostContainers int64

	failureWatchers []func(host netsim.NodeID)

	metrics telemetry.YarnMetrics
	tracer  *telemetry.Tracer
}

// SetTelemetry attaches resource-layer instrumentation (zero-value
// metrics and a nil tracer detach it).
func (rm *RM) SetTelemetry(m telemetry.YarnMetrics, tr *telemetry.Tracer) {
	rm.metrics = m
	rm.tracer = tr
}

// New creates an RM with a NodeManager on each worker host.
func New(net *netsim.Network, rmHost netsim.NodeID, workers []netsim.NodeID, cfg Config, rng *stats.RNG) (*RM, error) {
	cfg.applyDefaults()
	if len(workers) == 0 {
		return nil, errors.New("yarn: need at least one worker")
	}
	rm := &RM{
		cfg:     cfg,
		net:     net,
		eng:     net.Engine(),
		rng:     rng,
		rmHost:  rmHost,
		nmIndex: make(map[netsim.NodeID]*nodeManager, len(workers)),
	}
	for _, w := range workers {
		nm := &nodeManager{host: w}
		rm.nms = append(rm.nms, nm)
		rm.nmIndex[w] = nm
	}
	return rm, nil
}

// TotalSlots returns cluster-wide container capacity on live nodes.
func (rm *RM) TotalSlots() int {
	n := 0
	for _, nm := range rm.nms {
		if !nm.dead {
			n += rm.cfg.SlotsPerNode
		}
	}
	return n
}

// Start launches NodeManager heartbeats. They stop after Shutdown.
func (rm *RM) Start() {
	for _, nm := range rm.nms {
		jitter := sim.Time(rm.rng.Float64() * float64(nmHeartbeat))
		rm.startHeartbeat(nm, jitter)
	}
}

// startHeartbeat begins nm's heartbeat loop after first. The loop ends
// at Shutdown, on node loss, or once nm's epoch moves (crash, rejoin).
func (rm *RM) startHeartbeat(nm *nodeManager, first sim.Time) {
	e := nm.epoch
	rm.eng.Every(first, nmHeartbeat, func() bool {
		if rm.stopped || nm.dead || nm.crashed || nm.epoch != e {
			return false
		}
		if nm.host != rm.rmHost {
			rm.metrics.NMHeartbeats.Inc()
			rm.control(nm.host, rm.rmHost, flows.PortRMTracker, "yarn/nmHeartbeat")
		}
		rm.scheduleOn(nm)
		return true
	})
}

// Shutdown stops heartbeat rescheduling.
func (rm *RM) Shutdown() { rm.stopped = true }

// FailNode kills the NodeManager on host: its heartbeats stop, it is
// excluded from scheduling, and every running container is lost (firing
// the owners' loss handlers). The host itself stays reachable on the
// network — this models a daemon/agent failure, the common case.
func (rm *RM) FailNode(host netsim.NodeID) error {
	nm, ok := rm.nmIndex[host]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, host)
	}
	if nm.dead {
		return nil
	}
	rm.expireNode(nm)
	return nil
}

// expireNode declares a node lost: the common back half of the instant
// FailNode path and heartbeat-expiry detection after CrashNode.
func (rm *RM) expireNode(nm *nodeManager) {
	nm.dead = true
	rm.metrics.NodeExpiries.Inc()
	lost := nm.containers
	nm.containers = nil
	nm.used = 0
	for _, c := range lost {
		c.lost = true
		c.app.running--
		rm.LostContainers++
		rm.metrics.ContainersLost.Inc()
		if !c.delivered {
			// The host died during container launch: the owner never
			// saw the handle, so the original request goes back into
			// the queue transparently.
			c.req.submitted = rm.eng.Now()
			rm.enqueue(c.req)
			continue
		}
		if c.onLost != nil {
			c.onLost()
		}
	}
	// Applications learn about the node loss (as they do from the RM's
	// node reports) so they can re-run completed work that lived there.
	for _, fn := range rm.failureWatchers {
		fn(nm.host)
	}
	// Freed capacity elsewhere may now satisfy queued requests.
	rm.pump()
}

// CrashNode models a whole-node (or NM-process) crash with realistic
// delayed detection: heartbeats stop immediately, but the RM keeps the
// node's state until nmExpiry elapses without a beat, then declares it
// lost exactly as FailNode does. A node recovered before expiry was
// never "failed" from the RM's point of view — only a heartbeat gap
// happened. Crashing a crashed or dead node is a no-op.
func (rm *RM) CrashNode(host netsim.NodeID) error {
	nm, ok := rm.nmIndex[host]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, host)
	}
	if nm.dead || nm.crashed {
		return nil
	}
	nm.crashed = true
	nm.crashedAt = rm.eng.Now()
	nm.epoch++
	e := nm.epoch
	rm.eng.After(nmExpiry, func() {
		if nm.epoch == e && nm.crashed && !nm.dead {
			rm.expireNode(nm)
		}
	})
	return nil
}

// RecoverNode rejoins a crashed or lost NodeManager: it re-registers
// with the RM and resumes heartbeating, and — when the node had already
// been declared lost — its slots go back into the schedulable pool.
// Containers lost in the outage stay lost. Recovering a live node is a
// no-op.
func (rm *RM) RecoverNode(host netsim.NodeID) error {
	nm, ok := rm.nmIndex[host]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, host)
	}
	if !nm.dead && !nm.crashed {
		return nil
	}
	wasDead := nm.dead
	nm.dead = false
	nm.crashed = false
	nm.epoch++
	rm.metrics.NodeRejoins.Inc()
	if nm.host != rm.rmHost {
		rm.control(nm.host, rm.rmHost, flows.PortRMTracker, "yarn/nmRegister")
	}
	rm.startHeartbeat(nm, nmHeartbeat)
	if wasDead {
		// Recovered slots can serve queued requests right away.
		rm.pump()
	}
	return nil
}

// WatchNodeFailures registers fn to run whenever a NodeManager fails.
func (rm *RM) WatchNodeFailures(fn func(host netsim.NodeID)) {
	rm.failureWatchers = append(rm.failureWatchers, fn)
}

// NodeAlive reports whether host's NodeManager is running.
func (rm *RM) NodeAlive(host netsim.NodeID) bool {
	nm, ok := rm.nmIndex[host]
	return ok && !nm.dead
}

func (rm *RM) control(src, dst netsim.NodeID, port int, label string) {
	flows.SendControl(rm.net, rm.rng, src, dst, port, label)
}

// scheduleOn assigns queued requests to a heartbeating NodeManager.
// Requests are considered in priority order; within a priority, requests
// preferring this host (or indifferent) win first (data locality), then
// any request that has out-waited LocalityWait, FIFO within each class.
func (rm *RM) scheduleOn(nm *nodeManager) {
	if nm.dead || nm.crashed {
		return
	}
	now := rm.eng.Now()
	for nm.used < rm.cfg.SlotsPerNode {
		idx := -1
		for pri := PriorityAM; pri <= PriorityReduce && idx < 0; pri++ {
			// Pass 1: oldest request at this priority preferring this
			// host (or with no preference).
			for i, req := range rm.queue {
				if req.cancelled || req.priority != pri {
					continue
				}
				if len(req.preferred) == 0 || req.preferred[nm.host] {
					idx = i
					break
				}
			}
			// Pass 2: oldest request at this priority that has waited
			// out its locality delay.
			if idx < 0 {
				for i, req := range rm.queue {
					if req.cancelled || req.priority != pri {
						continue
					}
					if now-req.submitted >= rm.cfg.LocalityWait {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 {
			return
		}
		req := rm.queue[idx]
		rm.queue = append(rm.queue[:idx], rm.queue[idx+1:]...)
		rm.grant(nm, req)
	}
}

func (rm *RM) grant(nm *nodeManager, req *ContainerRequest) {
	nm.used++
	rm.Assigned++
	rm.metrics.ContainersGranted.Inc()
	if req.preferred[nm.host] {
		rm.LocalAssigned++
		rm.metrics.ContainersLocal.Inc()
	}
	rm.tracer.Add(telemetry.Span{
		Cat: "yarn", Name: "schedule", Attr: fmt.Sprintf("app%d/pri%d", req.app.id, req.priority),
		StartNs: int64(req.submitted), EndNs: int64(rm.eng.Now()),
	})
	req.app.running++
	c := &Container{app: req.app, nm: nm, req: req}
	nm.containers = append(nm.containers, c)
	// Container launch: RM→NM start-container RPC, then localization delay.
	rm.control(rm.rmHost, nm.host, flows.PortNMIPC, "yarn/startContainer")
	rm.eng.After(containerLaunchDelay, func() {
		if c.lost {
			return // host failed during launch; request was re-queued
		}
		c.delivered = true
		req.assign(c)
	})
}

// pump retries scheduling across all NodeManagers; used when capacity
// frees up between heartbeats.
func (rm *RM) pump() {
	for _, nm := range rm.nms {
		if !nm.dead && !nm.crashed && nm.used < rm.cfg.SlotsPerNode {
			rm.scheduleOn(nm)
		}
	}
}

// App is one submitted application (a MapReduce job's YARN footprint).
type App struct {
	rm      *RM
	id      int
	am      *Container
	running int
	done    bool
}

// Submit registers an application from client: the submission RPC, AM
// container allocation, and the AM heartbeat loop. onAM runs once the AM
// container is up, receiving its host.
func (rm *RM) Submit(client netsim.NodeID, onAM func(app *App)) *App {
	rm.apps++
	app := &App{rm: rm, id: rm.apps}
	rm.control(client, rm.rmHost, flows.PortRMClient, "yarn/submitApp")
	// The AM container itself goes through the scheduler, no preference.
	rm.enqueue(&ContainerRequest{
		app:       app,
		priority:  PriorityAM,
		submitted: rm.eng.Now(),
		assign: func(c *Container) {
			if app.done {
				// The job finished (or aborted) while this AM attempt
				// was still queued; give the slot straight back.
				c.Release()
				return
			}
			app.am = c
			rm.eng.Every(0, amHeartbeat, app.amHeartbeat)
			onAM(app)
		},
	})
	return app
}

func (rm *RM) enqueue(req *ContainerRequest) {
	rm.queue = append(rm.queue, req)
	rm.metrics.QueueDepthMax.SetMax(float64(len(rm.queue)))
}

// ID returns the application's cluster-unique id.
func (a *App) ID() int { return a.id }

// AMHost returns the host running the ApplicationMaster, or -1 if the
// AM container has not been granted yet.
func (a *App) AMHost() netsim.NodeID {
	if a.am == nil {
		return -1
	}
	return a.am.Host()
}

// OnAMLost registers the handler fired if the AM's host fails.
func (a *App) OnAMLost(fn func()) { a.am.OnLost(fn) }

// amHeartbeat is one beat of the AM→RM allocate loop; the loop ends
// once the application finishes, the RM shuts down or the AM is lost.
func (a *App) amHeartbeat() bool {
	if a.done || a.rm.stopped || a.am.lost {
		return false
	}
	a.rm.metrics.AMHeartbeats.Inc()
	a.rm.control(a.AMHost(), a.rm.rmHost, flows.PortRMScheduler, "yarn/amHeartbeat")
	return true
}

// RequestContainer asks for one task container at the given priority,
// preferring the given hosts (nil for no preference). assign runs on
// grant with the container handle.
func (a *App) RequestContainer(pri Priority, preferred []netsim.NodeID, assign func(c *Container)) {
	var pref map[netsim.NodeID]bool
	if len(preferred) > 0 {
		pref = make(map[netsim.NodeID]bool, len(preferred))
		for _, h := range preferred {
			pref[h] = true
		}
	}
	a.rm.enqueue(&ContainerRequest{
		app:       a,
		priority:  pri,
		preferred: pref,
		submitted: a.rm.eng.Now(),
		assign:    assign,
	})
}

// Finish unregisters the application: stops the AM heartbeat and frees
// the AM container slot.
func (a *App) Finish() {
	if a.done {
		return
	}
	a.done = true
	if a.am == nil {
		// Finished before the AM container was granted (a restart window);
		// the queued request releases itself on grant.
		return
	}
	if !a.am.lost {
		a.rm.control(a.AMHost(), a.rm.rmHost, flows.PortRMScheduler, "yarn/unregisterAM")
	}
	a.am.Release()
}
