package netsim

import (
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

// Allocator selects the bandwidth-sharing discipline.
type Allocator int

// Supported allocators. AllocMaxMin (the default) is progressive-filling
// max-min fairness, the standard flow-level model of TCP sharing.
// AllocEqualSplit is the naive alternative — each flow independently gets
// min over its links of capacity/flow-count, ignoring bandwidth freed by
// flows bottlenecked elsewhere. It exists as an ablation: Keddah's replay
// fidelity depends on the fair-sharing model (experiment A2).
const (
	AllocMaxMin Allocator = iota
	AllocEqualSplit
)

// Config selects the network's rate model.
type Config struct {
	// Allocator selects the bandwidth sharing model (default AllocMaxMin).
	Allocator Allocator
	// Transport selects the rate model: "" or "fluid" for instantaneous
	// max-min sharing (the default), "tcp" for the per-flow TCP state
	// machine (slow start, AIMD, fast retransmit, RTO) over droptail
	// queues. Validate user input with ParseTransport before building a
	// Network — NewNetwork panics on names ParseTransport rejects.
	Transport string
}

// loopbackBps is the rate for src==dst transfers (the local disk/memory
// path).
const loopbackBps = 20 * Gbps

// Network runs flows over a Topology on a shared simulation engine. It is
// the public face of the struct-of-arrays flow core (soa), which holds
// every per-flow attribute; allocations are checked against the
// from-scratch max-min oracle in invariants.go, and whole captures are
// fenced by committed golden digests.
type Network struct {
	eng  *sim.Engine
	topo *Topology
	cfg  Config
	taps []Tap

	soa *soaCore

	// Stats counters (maintained by the core).
	completed    uint64
	abortedCount uint64
	totalBytes   float64

	metrics telemetry.NetMetrics
}

// SetMetrics attaches network instrumentation. The zero value detaches
// it (every hook degrades to a nil check).
func (n *Network) SetMetrics(m telemetry.NetMetrics) { n.metrics = m }

// NewNetwork creates a Network bound to the engine and topology.
func NewNetwork(eng *sim.Engine, topo *Topology, cfg Config) *Network {
	tr, err := ParseTransport(cfg.Transport)
	if err != nil {
		panic(err)
	}
	n := &Network{eng: eng, topo: topo, cfg: cfg}
	n.soa = newSoaCore(n, tr)
	return n
}

// Reserve pre-sizes flow storage for at least peakFlows concurrent flows
// (and the engine's event slab to match: one completion event per flow
// plus activation and coalescing headroom). It is cheap to call again
// with a larger estimate and a no-op with a smaller one.
func (n *Network) Reserve(peakFlows int) {
	if peakFlows <= 0 {
		return
	}
	n.soa.reserve(peakFlows)
	// TCP mode holds one more persistent timer per flow (the RTO timer)
	// on top of completion + activation/coalescing headroom.
	mult := 2
	if n.soa.tcp != nil {
		mult = 3
	}
	n.eng.Reserve(mult*peakFlows + 16)
}

// Transport returns the rate model the network runs flows under.
func (n *Network) Transport() Transport {
	if n.soa.tcp != nil {
		return TransportTCP
	}
	return TransportFluid
}

// TCPStats returns the cumulative TCP event counts (fast retransmits and
// retransmission timeouts fired). Both are zero in fluid mode. Available
// without a telemetry sink so experiments and tests can read them directly.
func (n *Network) TCPStats() (fastRetransmits, timeouts uint64) {
	if n.soa.tcp != nil {
		return n.soa.tcp.fastRtx, n.soa.tcp.rtoFired
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
		n.soa.recordRates()
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

// StartFlow opens a transfer and returns its flow ID, the Flow.ID its
// completion reports. It returns an error if src/dst are not hosts or the
// size is negative. A destination currently unreachable because of link
// faults is NOT an error: the flow is created and aborts (firing OnAbort,
// never OnComplete) after a connect timeout, as a real connection attempt
// into a partition would.
func (n *Network) StartFlow(spec FlowSpec) (uint64, error) {
	if !n.topo.IsHost(spec.Src) || !n.topo.IsHost(spec.Dst) {
		return 0, fmt.Errorf("netsim: flow endpoints must be hosts (%d -> %d)", spec.Src, spec.Dst)
	}
	if spec.SizeBytes < 0 {
		return 0, fmt.Errorf("netsim: negative flow size %d", spec.SizeBytes)
	}
	return n.soa.startFlow(spec), nil
}

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

// SetLinkState takes a link down or brings it back up, recomputing routes.
// Active flows whose path crosses a downed link are rerouted over the
// surviving fabric when a route remains and aborted otherwise (firing
// their OnAbort). Bringing a link up never disturbs in-flight flows —
// they keep their current paths until they finish.
func (n *Network) SetLinkState(lid LinkID, up bool) error {
	if lid < 0 || int(lid) >= len(n.topo.links) {
		return fmt.Errorf("netsim: link %d out of range", lid)
	}
	return n.soa.setLinkState(lid, up)
}

// SetLinkCapacityScale degrades (or restores) a link to factor × its
// as-built capacity and triggers reallocation, modelling partial faults:
// a flapping optic, an oversubscribed middlebox, a half-duplex fallback.
func (n *Network) SetLinkCapacityScale(lid LinkID, factor float64) error {
	if err := n.topo.SetLinkCapacityScale(lid, factor); err != nil {
		return err
	}
	n.soa.settle()
	if n.soa.tcp != nil {
		n.soa.tcp.refreshDelay(lid)
	}
	n.soa.markDirty()
	return nil
}

// AbortFlowsWhere aborts every actively-transferring flow matching pred
// and returns how many were torn down (flows still in their propagation
// window are too young to have endpoint state and are left alone).
// Simulated daemon crashes use it to kill the TCP connections the dead
// process owned.
func (n *Network) AbortFlowsWhere(pred func(FlowSpec) bool) int {
	return n.soa.abortFlowsWhere(pred)
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
func (n *Network) ActiveFlows() int { return len(n.soa.active) + len(n.soa.parked) }

// linkFlowCount returns the number of transferring flows crossing link
// lid: those in its index plus the parked flows whose path crosses it.
func (n *Network) linkFlowCount(lid LinkID) int {
	c := n.soa
	k := len(c.linkFlows[lid])
	for _, s := range c.parked {
		if slices.Contains(c.path(s), lid) {
			k++
		}
	}
	return k
}

// reallocPendingNow reports whether a coalesced reallocation is queued at
// the current instant (installed rates intentionally stale).
func (n *Network) reallocPendingNow() bool { return n.soa.reallocPending }

// LinkRates returns the current allocated rate on every directed link
// (bits per second), indexed by LinkID. Utilization probes and invariant
// checks read this between events.
func (n *Network) LinkRates() []float64 {
	rates := make([]float64, len(n.topo.links))
	n.addLinkRates(rates)
	return rates
}

func (n *Network) addLinkRates(rates []float64) {
	c := n.soa
	for _, s := range c.active {
		for _, lid := range c.path(s) {
			rates[lid] += c.rate[s]
		}
	}
}

// CheckInvariants verifies the classic max-min fairness conditions on the
// current allocation: (1) no link carries more than its capacity;
// (2) every flow with a positive rate is bottlenecked — it crosses at
// least one saturated link (within tolerance). It returns a descriptive
// error on the first violation. Intended for tests and debugging; it is
// meaningful only under AllocMaxMin.
func (n *Network) CheckInvariants() error {
	const relTol = 1e-6
	rates := n.LinkRates()
	for lid, used := range rates {
		capBps := n.topo.links[lid].CapacityBps
		if used > capBps*(1+relTol) {
			return fmt.Errorf("netsim: link %d over capacity: %.3g > %.3g bps", lid, used, capBps)
		}
	}
	if n.soa.tcp != nil {
		// TCP mode: allocation is demand-limited water-filling, so the
		// fluid bottleneck condition only binds flows whose window demand
		// exceeds their allocation. A flow at (or below) its demand is
		// window-limited; anything in between must cross a saturated link.
		c, tc := n.soa, n.soa.tcp
		for _, s := range c.active {
			rate, d := c.rate[s], tc.demand[s]
			if rate > d*(1+relTol)+1e-6 {
				return fmt.Errorf("netsim: flow %d rate %.3g exceeds TCP demand %.3g bps", c.fid[s], rate, d)
			}
			if rate <= 0 || rate >= d*(1-relTol) {
				continue // stalled, or demand-limited at its window
			}
			sat := false
			for _, lid := range c.path(s) {
				if rates[lid] >= n.topo.links[lid].CapacityBps*(1-relTol) {
					sat = true
					break
				}
			}
			if !sat {
				return fmt.Errorf("netsim: flow %d (rate %.3g of demand %.3g bps) crosses no saturated link", c.fid[s], rate, d)
			}
		}
		return nil
	}
	if n.cfg.Allocator != AllocMaxMin {
		return nil
	}
	c := n.soa
	for _, s := range c.active {
		path := c.path(s)
		if c.rate[s] <= 0 || len(path) == 0 {
			continue
		}
		sat := false
		for _, lid := range path {
			if rates[lid] >= n.topo.links[lid].CapacityBps*(1-relTol) {
				sat = true
				break
			}
		}
		if !sat {
			return fmt.Errorf("netsim: flow %d (rate %.3g bps) crosses no saturated link", c.fid[s], c.rate[s])
		}
	}
	return nil
}
