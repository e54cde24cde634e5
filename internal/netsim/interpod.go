// Inter-pod fabric: store-and-forward transfers between per-pod networks
// living on different shards of a sim.ShardedEngine. Each pod keeps its
// own Network (and arenas) strictly shard-local; the only thing that
// crosses shards is a boundary event carrying a closure, posted through
// the scheduler's fixed-order mailboxes with at least the inter-pod
// latency of delay — exactly the lookahead the conservative windows are
// derived from, so a post can never violate a window boundary.
//
// A transfer is two flows and a hop: an egress flow from the source host
// to its pod's gateway, a cross-shard post after the inter-pod latency,
// and an ingress flow from the destination pod's gateway to the final
// host. A fault that kills either flow aborts the transfer.
package netsim

import (
	"fmt"
	"sync/atomic"

	"keddah/internal/sim"
)

// InterPodPort is the well-known destination port of inter-pod transfer
// flows, so captures classify fabric traffic like any Hadoop service.
const InterPodPort = 9300

// DefaultInterPodLatencyNs is the one-way latency between pod gateways
// (1ms) — also the lower bound on the scheduler lookahead.
const DefaultInterPodLatencyNs = 1_000_000

// interPodBasePort starts the per-pod ephemeral port range for fabric
// flows, above anything the in-pod Hadoop services allocate.
const interPodBasePort = 40000

// TransferSpec describes one inter-pod transfer.
type TransferSpec struct {
	// SrcPod and DstPod are pod indices; they must differ.
	SrcPod, DstPod int
	// Src and Dst are hosts inside the source and destination pods'
	// topologies. Neither may be its pod's gateway.
	Src, Dst NodeID
	// SizeBytes is moved twice: once to the source gateway, once from
	// the destination gateway.
	SizeBytes int64
	// Label annotates both flows ("/egress" and "/ingress" suffixed).
	Label string
	// OnComplete runs on the destination pod's engine when the ingress
	// flow delivers its last byte. OnAbort runs on whichever pod's
	// engine saw the failure. Exactly one of the two fires.
	OnComplete func()
	OnAbort    func()
}

// InterPodStats is a point-in-time counter snapshot. Counters are summed
// across shards; at a window barrier (no shard goroutine in flight) the
// values are exact and identical at any engine count.
type InterPodStats struct {
	Started, Completed, Aborted int64
	Pending                     int64
	Stage1Bytes, Stage2Bytes    int64
}

// InterPod is the fabric. Build it after the per-pod networks, before
// any traffic; Send only from events running on the source pod's engine.
type InterPod struct {
	sched    *sim.ShardedEngine
	nets     []*Network
	gateways []NodeID
	latency  sim.Time

	// ports[p] is pod p's ephemeral port counter, touched only by
	// events on pod p's engine (egress ports on the source pod,
	// ingress ports on the destination pod).
	ports []int

	// Shard goroutines update these concurrently; snapshot at barriers.
	started, completed, aborted int64
	pending                     int64
	stage1Bytes, stage2Bytes    int64
}

// NewInterPod wires the fabric over one network per pod. gateways[p] is
// the store-and-forward host of pod p (conventionally the master);
// latency is the one-way gateway-to-gateway delay and must be at least
// the scheduler's lookahead for posts to clear window boundaries.
func NewInterPod(sched *sim.ShardedEngine, nets []*Network, gateways []NodeID, latency sim.Time) (*InterPod, error) {
	if sched == nil {
		return nil, fmt.Errorf("netsim: interpod needs a sharded scheduler")
	}
	pods := sched.Pods()
	if len(nets) != pods || len(gateways) != pods {
		return nil, fmt.Errorf("netsim: interpod got %d networks and %d gateways for %d pods",
			len(nets), len(gateways), pods)
	}
	if latency < sched.Lookahead() {
		return nil, fmt.Errorf("netsim: interpod latency %v below scheduler lookahead %v", latency, sched.Lookahead())
	}
	ip := &InterPod{
		sched:    sched,
		nets:     nets,
		gateways: append([]NodeID(nil), gateways...),
		latency:  latency,
		ports:    make([]int, pods),
	}
	for p := range ip.ports {
		ip.ports[p] = interPodBasePort
	}
	return ip, nil
}

// Pending returns the in-flight transfer count. Exact at barriers.
func (ip *InterPod) Pending() int { return int(atomic.LoadInt64(&ip.pending)) }

// Stats snapshots the fabric counters. Exact at barriers.
func (ip *InterPod) Stats() InterPodStats {
	return InterPodStats{
		Started:     atomic.LoadInt64(&ip.started),
		Completed:   atomic.LoadInt64(&ip.completed),
		Aborted:     atomic.LoadInt64(&ip.aborted),
		Pending:     atomic.LoadInt64(&ip.pending),
		Stage1Bytes: atomic.LoadInt64(&ip.stage1Bytes),
		Stage2Bytes: atomic.LoadInt64(&ip.stage2Bytes),
	}
}

// CheckInvariants verifies fabric conservation. Call at a barrier or
// after a drain: started transfers must be accounted for exactly, and
// no ingress byte can exist without its egress byte.
func (ip *InterPod) CheckInvariants() error {
	s := ip.Stats()
	if s.Pending < 0 {
		return fmt.Errorf("netsim: interpod pending %d negative", s.Pending)
	}
	if s.Started != s.Completed+s.Aborted+s.Pending {
		return fmt.Errorf("netsim: interpod transfers leak: started %d != completed %d + aborted %d + pending %d",
			s.Started, s.Completed, s.Aborted, s.Pending)
	}
	if s.Stage2Bytes > s.Stage1Bytes {
		return fmt.Errorf("netsim: interpod ingress bytes %d exceed egress bytes %d", s.Stage2Bytes, s.Stage1Bytes)
	}
	return nil
}

// Send opens a transfer. It must be called from an event running on the
// source pod's engine (or before the run starts); the egress flow begins
// immediately.
func (ip *InterPod) Send(spec TransferSpec) error {
	pods := ip.sched.Pods()
	if spec.SrcPod < 0 || spec.SrcPod >= pods || spec.DstPod < 0 || spec.DstPod >= pods {
		return fmt.Errorf("netsim: interpod transfer between pods %d and %d outside [0, %d)", spec.SrcPod, spec.DstPod, pods)
	}
	if spec.SrcPod == spec.DstPod {
		return fmt.Errorf("netsim: interpod transfer within pod %d (use the pod's own network)", spec.SrcPod)
	}
	if spec.SizeBytes <= 0 {
		return fmt.Errorf("netsim: interpod transfer of %d bytes", spec.SizeBytes)
	}
	if spec.Src == ip.gateways[spec.SrcPod] {
		return fmt.Errorf("netsim: interpod source %d is pod %d's gateway", spec.Src, spec.SrcPod)
	}
	if spec.Dst == ip.gateways[spec.DstPod] {
		return fmt.Errorf("netsim: interpod destination %d is pod %d's gateway", spec.Dst, spec.DstPod)
	}

	atomic.AddInt64(&ip.started, 1)
	atomic.AddInt64(&ip.pending, 1)
	ip.ports[spec.SrcPod]++
	_, err := ip.nets[spec.SrcPod].StartFlow(FlowSpec{
		Src:       spec.Src,
		Dst:       ip.gateways[spec.SrcPod],
		SrcPort:   ip.ports[spec.SrcPod],
		DstPort:   InterPodPort,
		SizeBytes: spec.SizeBytes,
		Label:     spec.Label + "/egress",
		OnComplete: func(Flow) {
			atomic.AddInt64(&ip.stage1Bytes, spec.SizeBytes)
			// The hop lands after the barrier. A rejected post inside an
			// event is an internal protocol bug (latency below
			// lookahead), not a caller error.
			at := ip.sched.PodEngine(spec.SrcPod).Now() + ip.latency
			if err := ip.sched.Post(spec.SrcPod, spec.DstPod, at, func() { ip.ingress(spec) }); err != nil {
				panic(fmt.Sprintf("netsim: interpod post: %v", err))
			}
		},
		OnAbort: func(Flow) { ip.abort(spec) },
	})
	if err != nil {
		atomic.AddInt64(&ip.aborted, 1)
		atomic.AddInt64(&ip.pending, -1)
		return fmt.Errorf("netsim: interpod egress: %w", err)
	}
	return nil
}

// ingress runs on the destination pod's engine: the final gateway→host
// flow, completing the transfer.
func (ip *InterPod) ingress(spec TransferSpec) {
	ip.ports[spec.DstPod]++
	_, err := ip.nets[spec.DstPod].StartFlow(FlowSpec{
		Src:       ip.gateways[spec.DstPod],
		Dst:       spec.Dst,
		SrcPort:   ip.ports[spec.DstPod],
		DstPort:   InterPodPort,
		SizeBytes: spec.SizeBytes,
		Label:     spec.Label + "/ingress",
		OnComplete: func(Flow) {
			atomic.AddInt64(&ip.stage2Bytes, spec.SizeBytes)
			atomic.AddInt64(&ip.completed, 1)
			atomic.AddInt64(&ip.pending, -1)
			if spec.OnComplete != nil {
				spec.OnComplete()
			}
		},
		OnAbort: func(Flow) { ip.abort(spec) },
	})
	if err != nil {
		ip.abort(spec)
	}
}

// abort finishes a transfer on the failure path, on whichever pod's
// engine observed it.
func (ip *InterPod) abort(spec TransferSpec) {
	atomic.AddInt64(&ip.aborted, 1)
	atomic.AddInt64(&ip.pending, -1)
	if spec.OnAbort != nil {
		spec.OnAbort()
	}
}
