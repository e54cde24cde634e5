package netsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"keddah/internal/sim"
	"keddah/internal/telemetry"
)

// FlowSpec describes a transfer to start on the network.
type FlowSpec struct {
	Src, Dst NodeID
	// SrcPort and DstPort are TCP-style port numbers. Keddah classifies
	// flows by the well-known Hadoop destination ports.
	SrcPort, DstPort int
	// SizeBytes is the number of application bytes to move.
	SizeBytes int64
	// Label is a free-form ground-truth annotation ("job7/shuffle")
	// carried through to captures for classifier validation.
	Label string
	// OnComplete, if non-nil, runs when the last byte is delivered.
	OnComplete func(Flow)
	// OnAbort, if non-nil, runs when the flow is torn down before
	// completion (its path died and no reroute existed, or its endpoint
	// process was killed). Exactly one of OnComplete/OnAbort fires.
	OnAbort func(Flow)
}

// RateSegment records the allocated rate of a flow from Start until the
// next segment (or flow end). Packet captures use segments to synthesise
// packets with realistic timestamps. A network records them only while a
// RateTap is attached, and taps are attached before flows start.
type RateSegment struct {
	Start   sim.Time
	RateBps float64
}

// Flow is a finished transfer, delivered by value exactly once — to every
// Tap's FlowCompleted, then to the spec's OnComplete or OnAbort — the
// instant the flow completes or aborts. Nothing observes a flow in
// flight, so the network keeps no per-flow handle.
type Flow struct {
	// ID is the network-unique flow identifier StartFlow returned.
	ID uint64
	// Spec is the originating specification.
	Spec FlowSpec
	// Start is when the flow was opened; End is when its last byte
	// arrived, or when it was torn down.
	Start, End sim.Time
	// Transferred is the bytes actually delivered: SizeBytes for a
	// completed flow, the partial progress for an aborted one.
	Transferred int64
	// Aborted reports that the flow was torn down before delivering all
	// its bytes (path failure with no reroute, or endpoint death).
	Aborted bool
	// Segments is the rate history. It is recorded only while a RateTap
	// is attached to the network, which must happen before the flow
	// starts; without one it is nil.
	Segments []RateSegment
}

// transferredOf converts a byte residue into delivered bytes.
func transferredOf(size int64, remaining float64) int64 {
	rem := int64(remaining + 0.5)
	if rem < 0 {
		rem = 0
	}
	if rem > size {
		rem = size
	}
	return size - rem
}

// Tap observes finished flows, e.g. a ground-truth flow log. Taps are
// attached with AddTap before flows start; each sees every flow once,
// when it completes or aborts, before the spec's own callback runs.
type Tap interface {
	FlowCompleted(f Flow)
}

// RateTap is a Tap that reads Flow.Segments, e.g. a packet capture that
// paces synthesised packets across each flow's rate history. A network
// records rate history only while at least one RateTap is attached, so
// observers that need flow records alone cost no per-flow history.
type RateTap interface {
	Tap
	ReadsRates()
}

// ErrBadTransport is the typed error Config.Validate wraps for an
// unrecognised transport name. Config surfaces (ClusterSpec, CLI flags)
// match it with errors.Is to map bad input to a clear user-facing error
// instead of silently falling back to the fluid model.
var ErrBadTransport = errors.New("netsim: unknown transport")

// Config selects the network's rate model.
type Config struct {
	// Transport selects how flows transfer: "" or "fluid" for
	// instantaneous bandwidth sharing with no per-flow window dynamics
	// (the default, and the model the paper's evaluation uses), "tcp" for
	// the per-flow TCP state machine (slow start, AIMD, fast retransmit,
	// RTO) over droptail queues, which makes fan-in incast and timeout
	// dynamics observable.
	Transport string
	// Allocator selects how the fluid transport shares bandwidth: "" or
	// "maxmin" for progressive-filling max-min fairness (the default, the
	// standard flow-level model of TCP sharing), "equalsplit" for the
	// naive alternative where each flow independently gets the minimum
	// over its links of capacity/flow-count, ignoring bandwidth freed by
	// flows bottlenecked elsewhere. Equal split exists as an ablation:
	// Keddah's replay fidelity depends on the fair-sharing model
	// (experiment A2). TCP always fills max-min under window demand.
	Allocator string
}

// Validate rejects unknown transport and allocator names. An unknown
// transport wraps ErrBadTransport. NewNetwork panics on a config that
// fails it, so validate user input first.
func (c Config) Validate() error {
	switch c.Transport {
	case "", "fluid", "tcp":
	default:
		return fmt.Errorf("%w %q (valid: fluid, tcp)", ErrBadTransport, c.Transport)
	}
	switch c.Allocator {
	case "", "maxmin", "equalsplit":
	default:
		return fmt.Errorf("netsim: unknown allocator %q (valid: maxmin, equalsplit)", c.Allocator)
	}
	return nil
}

// loopbackBps is the rate for src==dst transfers (the local disk/memory
// path).
const loopbackBps = 20 * Gbps

// Network runs flows over a Topology on a shared simulation engine. It is
// also the flow storage engine: an arena-per-capture, struct-of-arrays
// layout where every per-flow attribute lives in a parallel slice keyed
// by an int32 slot id. Slots are recycled through a free list and
// generation-counted (a pending activation or abort event, or a victim
// snapshot, can never touch a slot's next occupant), flow paths live in
// one shared arena indexed by slot × stride, and rate-history segments —
// recorded only while a RateTap is attached — come from a chunk pool
// linked by int32 next ids. A flow leaves the network once, as a Flow
// value built on the stack when it completes or aborts. Together with
// the engine's event slab and persistent per-slot completion timers, a
// settled capture loop — start, activate, reallocate, complete, recycle —
// performs zero heap allocations, with taps and completion callbacks
// attached.
//
// Its trajectories are fenced by committed golden digests of whole
// captures and of per-flow outcomes, and its allocations are checked
// against the from-scratch max-min oracle (maxMinRates) by the tests and
// by StrictChecks sweeps.
type Network struct {
	eng  *sim.Engine
	topo *Topology
	taps []Tap
	// equalSplit selects the equal-split ablation allocator
	// (Config.Allocator "equalsplit"); it never applies under TCP.
	equalSplit bool

	// Stats counters.
	completed    uint64
	abortedCount uint64
	totalBytes   float64

	metrics telemetry.NetMetrics

	// Per-slot parallel arrays (SoA). gen counts slot reuse; state is one
	// of the slot* constants; listIdx is the slot's position in active
	// while state == slotActive.
	fid       []uint64
	spec      []FlowSpec
	gen       []uint32
	state     []uint8
	start     []sim.Time
	activated []sim.Time
	last      []sim.Time
	remaining []float64 // bytes
	rate      []float64 // bps
	listIdx   []int32
	// completeEv[s] is the slot's persistent completion timer, created on
	// the slot's first completion scheduling and re-armed by every
	// subsequent occupant — one event allocation per slot, ever.
	completeEv []sim.Event
	// due[s] is the instant the slot's current rate drains its residue,
	// or noDue when it has no rate or would never finish. ticket[s] is
	// the engine sequence number taken when due[s] was set: the timer is
	// armed with it only once due[s] is at or before horizon, and then
	// fires with the (time, sequence) key an eager re-arm would have
	// given it.
	due    []sim.Time
	ticket []uint64

	// Path storage: slot s's path is pathArena[s*stride : s*stride+pathLen[s]].
	// The stride grows (rarely — fabric diameter is small) by arena
	// rebuild.
	pathArena  []LinkID
	pathLen    []int32
	pathStride int

	// Rate-segment chunk pool: per-slot chained chunk lists, recycled in
	// O(1) on slot free. Empty unless recording (a RateTap is attached).
	recording   bool
	segChunks   []segChunk
	segFreeHead int32
	segHead     []int32
	segTail     []int32
	segCount    []int32

	freeSlots []int32

	// active lists transferring slots in activation order (the order the
	// allocator and settle iterate in): actSeq[s] is slot s's activation
	// number, drawn from nextAct, and active is sorted by it.
	active  []int32
	actSeq  []uint64
	nextAct uint64
	// parked holds, in no order, the TCP flows stalled in RTO wait. A
	// parked flow is transferring (slotActive) but silent: it is in
	// neither active nor linkFlows, so the ack clock, the allocator and
	// the link index skip it until its retransmission timer unparks it.
	// parkPos[s] is s's position in parked, or -1.
	parked  []int32
	parkPos []int32
	// linkFlows indexes the active slots crossing each link, each list in
	// active-list order (ascending listIdx), so the allocator never scans
	// the whole active set to find who shares a bottleneck and never sorts
	// them. loaded holds the links whose list is non-empty, in no order;
	// loadedPos[l] is l's position in it, or -1.
	linkFlows [][]int32
	loaded    []LinkID
	loadedPos []int32

	seq            uint64
	reallocPending bool
	dirtyE         sim.Event
	// horizon is the latest instant an active flow's completion is armed
	// for: the next ack-clock tick under TCP, MaxTime (never) in fluid
	// mode. It only grows. armedTo is the horizon of the last applyRates,
	// which left every completion due by then armed. settledAt is the
	// instant settle last charged progress at.
	horizon   sim.Time
	armedTo   sim.Time
	settledAt sim.Time

	// tcp carries the per-flow TCP state machine when Config.Transport is
	// "tcp"; nil in fluid mode, and every hook below nil-checks it so the
	// fluid trajectory is bit-identical to a build without the subsystem.
	tcp *tcpCore

	// Allocation scratch, reused across reallocations. remCap/cnt are
	// indexed by LinkID; rates/frozen by active-list position; loadScan
	// is the allocator's shrinking copy of loaded; cand holds the
	// active-list positions a demand rescan still has to visit;
	// pathScratch is the route computation buffer.
	remCap      []float64
	cnt         []int
	rates       []float64
	frozen      []bool
	loadScan    []LinkID
	cand        []int32
	pathScratch []LinkID

	// Stored callbacks, bound once so scheduling never allocates a closure.
	activateCb func(uint64)
	abortCb    func(uint64)
	finishCb   func(uint64)
}

// SetMetrics attaches network instrumentation. The zero value detaches
// it (every hook degrades to a nil check).
func (n *Network) SetMetrics(m telemetry.NetMetrics) { n.metrics = m }

// NewNetwork creates a Network bound to the engine and topology. It
// panics on a config that Config.Validate rejects.
func NewNetwork(eng *sim.Engine, topo *Topology, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nl := len(topo.links)
	n := &Network{
		eng:         eng,
		topo:        topo,
		equalSplit:  cfg.Allocator == "equalsplit" && cfg.Transport != "tcp",
		pathStride:  8,
		segFreeHead: -1,
		linkFlows:   make([][]int32, nl),
		loaded:      make([]LinkID, 0, nl),
		loadedPos:   make([]int32, nl),
		remCap:      make([]float64, nl),
		cnt:         make([]int, nl),
		loadScan:    make([]LinkID, 0, nl),
		horizon:     sim.MaxTime,
		armedTo:     noDue,
		settledAt:   -1,
	}
	for i := range n.loadedPos {
		n.loadedPos[i] = -1
	}
	n.activateCb = n.activate
	n.abortCb = n.abortByArg
	n.finishCb = n.finishByArg
	n.dirtyE = eng.NewTimer(n.dirty, 0)
	if cfg.Transport == "tcp" {
		n.tcp = newTCPCore(n)
	}
	return n
}

// TCPStats returns the cumulative TCP event counts (fast retransmits and
// retransmission timeouts fired). Both are zero in fluid mode. Available
// without a telemetry sink so experiments and tests can read them directly.
func (n *Network) TCPStats() (fastRetransmits, timeouts uint64) {
	if n.tcp != nil {
		return n.tcp.fastRtx, n.tcp.rtoFired
	}
	return 0, 0
}

// Topology returns the network's topology.
func (n *Network) Topology() *Topology { return n.topo }

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// AddTap registers a finished-flow observer. Attaching a RateTap turns on
// rate-history recording for the flows that start afterwards.
func (n *Network) AddTap(t Tap) {
	n.taps = append(n.taps, t)
	if _, ok := t.(RateTap); ok {
		// Size the chunk pool for the peak the slot slabs were reserved
		// for (callers reserve before they attach taps).
		n.recording = true
		n.segChunks = growCap(n.segChunks, cap(n.fid))
	}
}

// Completed returns the number of flows finished so far.
func (n *Network) Completed() uint64 { return n.completed }

// TotalBytes returns the total bytes delivered so far.
func (n *Network) TotalBytes() float64 { return n.totalBytes }

// flowHash mixes the 5-tuple for deterministic ECMP path selection.
func flowHash(s FlowSpec, id uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(s.Src))
	mix(uint64(s.Dst))
	mix(uint64(s.SrcPort))
	mix(uint64(s.DstPort))
	mix(id)
	return h
}

// noRouteTimeout is how long a flow opened towards an unreachable
// destination (network partition) lingers before aborting — the TCP
// connect-timeout stand-in. Retrying layers observe the abort and apply
// their own backoff on top.
const noRouteTimeout = sim.Time(1_000_000_000)

// durationFor converts bytes at bps into simulated time, rounding UP to
// the next nanosecond so a completion event never fires before the last
// byte has actually been charged by settle. A zero/negative rate, or one
// so small the transfer would outlast the representable horizon, clamps
// to MaxTime instead of overflowing sim.Time.
func durationFor(bytes, bps float64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	if bps <= 0 {
		return sim.MaxTime
	}
	ns := math.Ceil(bytes * 8 / bps * 1e9)
	if ns >= float64(sim.MaxTime) || math.IsNaN(ns) {
		return sim.MaxTime
	}
	return sim.Time(ns)
}

// rateTolerance is the relative tolerance under which a recomputed rate
// counts as unchanged, leaving the flow's completion event in place.
const rateTolerance = 1e-9

func rateEqual(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := math.Abs(a)
	if mb := math.Abs(b); mb > m {
		m = mb
	}
	return d <= m*rateTolerance
}

// SetLinkCapacityScale degrades (or restores) a link to factor × its
// as-built capacity and triggers reallocation, modelling partial faults:
// a flapping optic, an oversubscribed middlebox, a half-duplex fallback.
func (n *Network) SetLinkCapacityScale(lid LinkID, factor float64) error {
	if err := n.topo.SetLinkCapacityScale(lid, factor); err != nil {
		return err
	}
	n.settle()
	if n.tcp != nil {
		n.tcp.refreshDelay(lid)
	}
	n.markDirty()
	return nil
}

// Reachable reports whether the current fabric routes src to dst.
func (n *Network) Reachable(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	return len(n.topo.nextHops[src][dst]) > 0
}

// AbortedFlows returns the number of flows torn down by faults so far.
func (n *Network) AbortedFlows() uint64 { return n.abortedCount }

// ActiveFlows returns the number of currently transferring network flows,
// TCP flows stalled in RTO wait included.
func (n *Network) ActiveFlows() int { return len(n.active) + len(n.parked) }

// linkFlowCount returns the number of transferring flows crossing link
// lid: those in its index plus the parked flows whose path crosses it.
func (n *Network) linkFlowCount(lid LinkID) int {
	k := len(n.linkFlows[lid])
	for _, s := range n.parked {
		if slices.Contains(n.path(s), lid) {
			k++
		}
	}
	return k
}

// LinkRates returns the current allocated rate on every directed link
// (bits per second), indexed by LinkID. Utilization probes and invariant
// checks read this between events.
func (n *Network) LinkRates() []float64 {
	rates := make([]float64, len(n.topo.links))
	for _, s := range n.active {
		for _, lid := range n.path(s) {
			rates[lid] += n.rate[s]
		}
	}
	return rates
}

// demandOf is the rate transferring slot s asks for: its window demand
// (cwnd/srtt) under TCP, unbounded in fluid mode. The invariant checks
// and the max-min oracle cap every flow at it.
func (n *Network) demandOf(s int32) float64 {
	if n.tcp != nil {
		return n.tcp.demand[s]
	}
	return math.Inf(1)
}

// CheckInvariants verifies the classic max-min fairness conditions on the
// current allocation: (1) no link carries more than its capacity;
// (2) no flow runs above its demand (demandOf), and every flow with a
// positive rate below its demand is bottlenecked — it crosses at least
// one saturated link (within tolerance). A TCP flow at its demand is
// window-limited; a fluid flow's demand is unbounded, so every fluid flow
// with a rate must be bottlenecked. It returns a descriptive error on the
// first violation. Intended for tests and debugging; condition (2) is
// skipped under the equal-split allocator, which is not max-min.
func (n *Network) CheckInvariants() error {
	const relTol = 1e-6
	rates := n.LinkRates()
	for lid, used := range rates {
		capBps := n.topo.links[lid].CapacityBps
		if used > capBps*(1+relTol) {
			return fmt.Errorf("netsim: link %d over capacity: %.3g > %.3g bps", lid, used, capBps)
		}
	}
	if n.equalSplit {
		return nil
	}
	saturated := func(lid LinkID) bool { return rates[lid] >= n.topo.links[lid].CapacityBps*(1-relTol) }
	for _, s := range n.active {
		rate, d := n.rate[s], n.demandOf(s)
		if rate > d*(1+relTol)+1e-6 {
			return fmt.Errorf("netsim: flow %d rate %.3g exceeds TCP demand %.3g bps", n.fid[s], rate, d)
		}
		if rate <= 0 || rate >= d*(1-relTol) || slices.ContainsFunc(n.path(s), saturated) {
			continue // stalled, demand-limited at its window, or bottlenecked
		}
		if n.tcp != nil {
			return fmt.Errorf("netsim: flow %d (rate %.3g of demand %.3g bps) crosses no saturated link", n.fid[s], rate, d)
		}
		return fmt.Errorf("netsim: flow %d (rate %.3g bps) crosses no saturated link", n.fid[s], rate)
	}
	return nil
}
