package netsim

import (
	"fmt"
	"math"
	"slices"

	"keddah/internal/sim"
)

// tcpCore is the TCP transport attached to the struct-of-arrays flow
// storage when Config.Transport is "tcp". Every active flow carries a TCP
// state machine (slow start, AIMD congestion avoidance, fast retransmit,
// RTO with exponential backoff) and every link a fluid droptail queue; a
// single persistent ack-clock timer steps all flows once per tick. It has
// no allocator of its own: reallocate hands its per-slot demand vector
// (cwnd/srtt) to the same progressive filling the fluid transport uses
// (Network.maxMinFill), so a window-limited flow freezes at its demand
// and the slack redistributes to flows that can use it. A flow stalled in
// RTO wait demands nothing: the reallocation that zeroes its rate parks
// it outside the per-tick working set (Network.parked), and its
// retransmission timer returns it, so ticks and reallocations visit only
// flows that can send.
//
// The model is the classic fluid approximation of TCP (Misra/Gong/Towsley
// style): goodput is charged at the allocated (capacity-feasible) rate,
// queues integrate the surplus of offered window-demand over capacity, and
// a queue hitting its buffer timestamps an overflow that every flow
// crossing the link reacts to at its next tick — synchronized loss, which
// is exactly the mechanism behind shuffle fan-in incast collapse.
//
// Everything runs on the network's sim.Engine with persistent timers (one
// global tick, one RTO timer per slot, created on first use like the
// completion timers), so the steady-state loop allocates nothing and
// same-seed runs are bit-identical. When tcpCore is nil (fluid mode) every
// hook in Network degrades to a nil check and the fluid trajectory is
// byte-identical to a build without this file.
type tcpCore struct {
	c *Network

	// Per-slot state, parallel to Network's slot arrays.
	cwnd     []float64 // congestion window, bytes
	ssthresh []float64 // slow-start threshold, bytes
	cwndCap  []float64 // path BDP + bottleneck buffer, bytes
	baseRTT  []float64 // propagation round trip, seconds
	srtt     []float64 // smoothed RTT (base + queue delay), seconds
	demand   []float64 // offered rate cwnd*8/srtt, bps
	acked    []float64 // bytes delivered since the last tick
	lossAt   []sim.Time
	tstate   []uint8
	backoff  []uint8
	// rtoEv[s] is the slot's persistent retransmission timer, created on
	// the slot's first whole-window loss and re-armed forever after.
	rtoEv []sim.Event

	// Per-link droptail queue model. qDelay[l] is qBytes[l]'s queueing
	// delay at the link's capacity, in seconds. live lists, in no order,
	// the links with offered load or a standing queue — the only ones
	// whose queue can move; isLive[l] reports whether l is on it.
	qBytes     []float64 // current queue depth, bytes
	qDelay     []float64
	offeredBps []float64 // sum of crossing flows' demand, bps
	overflowAt []sim.Time
	lastQ      sim.Time
	live       []LinkID
	isLive     []bool

	tickEv sim.Event

	// Cumulative event counts, mirrored into telemetry when attached.
	fastRtx  uint64
	rtoFired uint64

	tickCb func(uint64)
	rtoCb  func(uint64)
}

// TCP flow states.
const (
	tcpSlowStart uint8 = iota
	tcpAvoid
	tcpRTOWait
)

// Fixed TCP transport parameters, read only when the transport is "tcp".
const (
	// tcpMSS is the segment payload size in bytes: a 1500-byte Ethernet
	// MTU minus TCP/IP headers with timestamps.
	tcpMSS float64 = 1448
	// tcpInitWindow is the initial congestion window in bytes (RFC 6928
	// IW10, the Linux initcwnd).
	tcpInitWindow = 10 * tcpMSS
	// tcpBufferBytes is the per-link droptail queue depth: a shallow
	// ToR-class buffer, the regime where shuffle incast shows.
	tcpBufferBytes float64 = 128 << 10
	// tcpRTOMinNs is the minimum retransmission timeout (Linux
	// TCP_RTO_MIN): the constant that makes incast collapse hurt.
	tcpRTOMinNs float64 = 200_000_000
	// tcpRTOMaxNs caps the backed-off timeout (the RFC 6298 floor for an
	// RTO ceiling).
	tcpRTOMaxNs float64 = 60_000_000_000
	// tcpTick is the ack-clock granularity (a 1000 Hz Linux jiffy): every
	// tick each active flow grows its window by the bytes acked since the
	// last tick and reacts to queue overflow on its path. Window growth
	// is driven by acked bytes, so it is insensitive to the tick cadence.
	tcpTick sim.Time = 1_000_000
)

// tcpMaxBackoff caps RTO exponential backoff at 2^6 = 64x.
const tcpMaxBackoff = 6

func newTCPCore(c *Network) *tcpCore {
	nl := len(c.topo.links)
	t := &tcpCore{
		c:          c,
		qBytes:     make([]float64, nl),
		qDelay:     make([]float64, nl),
		offeredBps: make([]float64, nl),
		overflowAt: make([]sim.Time, nl),
		live:       make([]LinkID, 0, nl),
		isLive:     make([]bool, nl),
	}
	for i := range t.overflowAt {
		t.overflowAt[i] = -1
	}
	t.tickCb = t.tick
	t.rtoCb = t.rtoFire
	t.tickEv = c.eng.NewTimer(t.tickCb, 0)
	return t
}

// reserve pre-sizes the per-slot arrays alongside Network.Reserve.
func (t *tcpCore) reserve(peak int) {
	t.cwnd = growCap(t.cwnd, peak)
	t.ssthresh = growCap(t.ssthresh, peak)
	t.cwndCap = growCap(t.cwndCap, peak)
	t.baseRTT = growCap(t.baseRTT, peak)
	t.srtt = growCap(t.srtt, peak)
	t.demand = growCap(t.demand, peak)
	t.acked = growCap(t.acked, peak)
	t.lossAt = growCap(t.lossAt, peak)
	t.tstate = growCap(t.tstate, peak)
	t.backoff = growCap(t.backoff, peak)
	t.rtoEv = growCap(t.rtoEv, peak)
}

// appendSlot extends the per-slot arrays for a freshly appended slot.
func (t *tcpCore) appendSlot() {
	t.cwnd = append(t.cwnd, 0)
	t.ssthresh = append(t.ssthresh, 0)
	t.cwndCap = append(t.cwndCap, 0)
	t.baseRTT = append(t.baseRTT, 0)
	t.srtt = append(t.srtt, 0)
	t.demand = append(t.demand, 0)
	t.acked = append(t.acked, 0)
	t.lossAt = append(t.lossAt, 0)
	t.tstate = append(t.tstate, tcpSlowStart)
	t.backoff = append(t.backoff, 0)
	t.rtoEv = append(t.rtoEv, sim.Event{})
}

// refreshPath recomputes the path-derived window parameters: the base RTT
// from topology latencies and the window cap (path BDP plus the bottleneck
// buffer — more than this can never be in flight). Called on activation
// and after reroutes.
func (t *tcpCore) refreshPath(s int32) {
	path := t.c.path(s)
	rtt := 2 * float64(t.c.topo.PathLatencyNs(path)) / 1e9
	if rtt <= 0 {
		rtt = 1e-6 // zero-latency fabric: floor the RTT at 1 µs
	}
	t.baseRTT[s] = rtt
	bneck := math.Inf(1)
	for _, lid := range path {
		if c := t.c.topo.links[lid].CapacityBps; c < bneck {
			bneck = c
		}
	}
	if math.IsInf(bneck, 1) {
		bneck = loopbackBps
	}
	w := bneck/8*rtt + tcpBufferBytes
	if w < 2*tcpMSS {
		w = 2 * tcpMSS
	}
	t.cwndCap[s] = w
}

// onActivate initialises TCP state when a flow joins the active set.
func (t *tcpCore) onActivate(s int32) {
	now := t.c.eng.Now()
	t.refreshPath(s)
	iw := tcpInitWindow
	if iw > t.cwndCap[s] {
		iw = t.cwndCap[s]
	}
	if iw < tcpMSS {
		iw = tcpMSS
	}
	t.cwnd[s] = iw
	t.ssthresh[s] = t.cwndCap[s]
	t.srtt[s] = t.baseRTT[s]
	t.demand[s] = t.cwnd[s] * 8 / t.srtt[s]
	t.acked[s] = 0
	t.lossAt[s] = now
	t.tstate[s] = tcpSlowStart
	t.backoff[s] = 0
	if !t.tickEv.Pending() {
		t.armTick(now)
	}
}

// armTick schedules the next ack-clock tick one period after now. That
// tick is the completion horizon: every flow step and reallocation runs
// before it, so a completion is armed only once it is due by then.
func (t *tcpCore) armTick(now sim.Time) {
	next := now + tcpTick
	t.c.horizon = next
	_ = t.tickEv.Schedule(next)
}

// onReroute re-derives path parameters after a fault moved the flow and
// clamps the window into the new path's bounds.
func (t *tcpCore) onReroute(s int32) {
	t.refreshPath(s)
	if t.cwnd[s] > t.cwndCap[s] {
		t.cwnd[s] = t.cwndCap[s]
	}
	if t.cwnd[s] < tcpMSS {
		t.cwnd[s] = tcpMSS
	}
}

// onRemove releases TCP state when a flow leaves the active set.
func (t *tcpCore) onRemove(s int32) {
	t.rtoEv[s].Cancel()
	t.demand[s] = 0
	t.acked[s] = 0
}

// settleQueues integrates every live link's droptail queue over the
// interval since the last settle: depth grows by (offered demand −
// capacity) and a queue pinned at its buffer while oversubscribed
// timestamps an overflow that flows crossing the link treat as loss at
// their next tick. A link with no offered load and an empty queue stays
// empty, so it leaves the live list.
func (t *tcpCore) settleQueues(now sim.Time) {
	dt := (now - t.lastQ).Seconds()
	t.lastQ = now
	if dt <= 0 {
		return
	}
	maxQ := 0.0
	n := 0
	for _, l := range t.live {
		capBps := t.c.topo.links[l].CapacityBps
		net := (t.offeredBps[l] - capBps) / 8
		q := t.qBytes[l] + net*dt
		if q >= tcpBufferBytes {
			q = tcpBufferBytes
			if net > 0 {
				t.overflowAt[l] = now
			}
		}
		if q < 0 {
			q = 0
		}
		t.qBytes[l] = q
		t.qDelay[l] = q * 8 / capBps
		if q > maxQ {
			maxQ = q
		}
		if q == 0 && t.offeredBps[l] == 0 {
			t.isLive[l] = false
			continue
		}
		t.live[n] = l
		n++
	}
	t.live = t.live[:n]
	if maxQ > 0 {
		t.c.metrics.TCPQueueMaxBytes.SetMax(maxQ)
	}
}

// refreshDelay recomputes link l's queueing delay after its capacity
// changed.
func (t *tcpCore) refreshDelay(l LinkID) {
	t.qDelay[l] = t.qBytes[l] * 8 / t.c.topo.links[l].CapacityBps
}

// updateOffered rebuilds the per-link offered load from current demands.
// Called by reallocate after demands changed, so queue integration over
// the *next* interval uses the new windows. Only live links can carry
// load from before, and every link a demanding flow crosses turns live.
func (t *tcpCore) updateOffered() {
	t.clearOffered()
	for _, s := range t.c.active {
		d := t.demand[s]
		if d <= 0 {
			continue
		}
		for _, lid := range t.c.path(s) {
			if !t.isLive[lid] {
				t.isLive[lid] = true
				t.live = append(t.live, lid)
			}
			t.offeredBps[lid] += d
		}
	}
}

// clearOffered zeroes the offered load once the active set drains, so
// queues integrate down to empty across idle gaps.
func (t *tcpCore) clearOffered() {
	for _, l := range t.live {
		t.offeredBps[l] = 0
	}
}

// tick is the global ack clock: charge progress (settle), step every
// active flow's state machine, then trigger one coalesced reallocation.
// Parked flows have nothing to step, but the clock keeps ticking while
// any is left, exactly as it did when stalled flows stayed active, so
// the event trajectory and a returning flow's tick phase are unchanged.
func (t *tcpCore) tick(uint64) {
	c := t.c
	if len(c.active) == 0 && len(c.parked) == 0 {
		return // re-armed by the next activation
	}
	c.settle()
	now := c.eng.Now()
	for _, s := range c.active {
		t.step(s, now)
	}
	c.markDirty()
	t.armTick(now)
}

// pathState walks s's path once. It reports whether any link on it
// overflowed after the flow's last loss reaction — at most one window
// reduction per overflow episode per tick, for every flow sharing the
// link (synchronized loss) — and the queueing delay summed along it, in
// seconds.
func (t *tcpCore) pathState(s int32) (loss bool, delay float64) {
	since := t.lossAt[s]
	for _, lid := range t.c.path(s) {
		loss = loss || t.overflowAt[lid] > since
		delay += t.qDelay[lid]
	}
	return loss, delay
}

// step advances one flow's state machine by one tick. Window growth is
// driven by the bytes actually delivered since the last tick (slow start:
// one byte per acked byte; avoidance: MSS²/cwnd per acked MSS), so the
// dynamics do not depend on the tick cadence.
func (t *tcpCore) step(s int32, now sim.Time) {
	if t.tstate[s] == tcpRTOWait {
		t.acked[s] = 0
		return
	}
	acked := t.acked[s]
	t.acked[s] = 0
	loss, qDelay := t.pathState(s)
	if loss {
		t.onLoss(s, now, qDelay)
		return
	}
	if acked > 0 {
		t.backoff[s] = 0
		switch t.tstate[s] {
		case tcpSlowStart:
			t.cwnd[s] += acked
			if t.cwnd[s] >= t.ssthresh[s] {
				t.tstate[s] = tcpAvoid
			}
		case tcpAvoid:
			t.cwnd[s] += tcpMSS * acked / t.cwnd[s]
		}
		if t.cwnd[s] > t.cwndCap[s] {
			t.cwnd[s] = t.cwndCap[s]
		}
		t.c.metrics.TCPCwndMaxBytes.SetMax(t.cwnd[s])
	}
	rtt := t.baseRTT[s] + qDelay
	t.srtt[s] += (rtt - t.srtt[s]) / 8
	t.demand[s] = t.cwnd[s] * 8 / t.srtt[s]
}

// onLoss reacts to queue overflow on the flow's path. A window of at least
// four segments has enough duplicate acks to fast-retransmit: halve and
// keep transmitting. A smaller window lost everything in flight — the
// connection stalls silent until its retransmission timer fires. qDelay
// is the queueing delay along the flow's path, in seconds.
func (t *tcpCore) onLoss(s int32, now sim.Time, qDelay float64) {
	t.lossAt[s] = now
	mss := tcpMSS
	half := t.cwnd[s] / 2
	if half < 2*mss {
		half = 2 * mss
	}
	t.ssthresh[s] = half
	if t.cwnd[s] >= 4*mss {
		t.cwnd[s] = half
		t.tstate[s] = tcpAvoid
		rtt := t.baseRTT[s] + qDelay
		t.srtt[s] += (rtt - t.srtt[s]) / 8
		t.demand[s] = t.cwnd[s] * 8 / t.srtt[s]
		t.fastRtx++
		t.c.metrics.TCPFastRetransmits.Inc()
		return
	}
	t.tstate[s] = tcpRTOWait
	t.demand[s] = 0
	t.armRTO(s, now)
}

// armRTO schedules the slot's persistent retransmission timer at
// max(RTOmin, 2·srtt) · 2^backoff, capped at RTOmax.
func (t *tcpCore) armRTO(s int32, now sim.Time) {
	rto := 2 * t.srtt[s] * 1e9
	if rto < tcpRTOMinNs {
		rto = tcpRTOMinNs
	}
	rto *= float64(int64(1) << t.backoff[s])
	if rto > tcpRTOMaxNs {
		rto = tcpRTOMaxNs
	}
	if !t.rtoEv[s].Valid() {
		t.rtoEv[s] = t.c.eng.NewTimer(t.rtoCb, uint64(uint32(s)))
	}
	_ = t.rtoEv[s].Schedule(now + sim.Time(int64(rto)))
}

// rtoFire ends an RTO stall: the flow unparks, its window collapses to
// one segment and it probes again from slow start, with the next timeout
// backed off exponentially until progress resets it.
func (t *tcpCore) rtoFire(arg uint64) {
	s := int32(uint32(arg))
	c := t.c
	if c.state[s] != slotActive || t.tstate[s] != tcpRTOWait {
		return
	}
	now := c.eng.Now()
	c.settle()
	c.unpark(s) // a stalled flow is parked by the reallocation of its stall tick
	t.rtoFired++
	c.metrics.TCPTimeouts.Inc()
	if t.backoff[s] < tcpMaxBackoff {
		t.backoff[s]++
	}
	t.cwnd[s] = tcpMSS
	t.tstate[s] = tcpSlowStart
	t.lossAt[s] = now
	t.acked[s] = 0
	t.demand[s] = t.cwnd[s] * 8 / t.srtt[s]
	c.markDirty()
}

// verify checks the TCP state machine's structural invariants over
// active and parked flows: windows inside [MSS, BDP+buffer], thresholds
// and RTTs sane, stalled flows demand-free with a pending retransmission
// timer, every parked flow stalled, queues inside their buffers, and
// every link with a queue or offered load on the live list. Wired into
// Network.VerifyState, so the invariants layer (keddah_checks) sweeps it
// during captures.
func (t *tcpCore) verify() error {
	c := t.c
	mss := tcpMSS
	for _, s := range c.parked {
		if t.tstate[s] != tcpRTOWait {
			return fmt.Errorf("netsim: flow %d parked in TCP state %d, not RTO wait", c.fid[s], t.tstate[s])
		}
	}
	for _, s := range slices.Concat(c.active, c.parked) {
		if math.IsNaN(t.cwnd[s]) || t.cwnd[s] < mss*0.999 || t.cwnd[s] > t.cwndCap[s]*1.001 {
			return fmt.Errorf("netsim: flow %d cwnd %.1f outside [MSS %.0f, BDP+buffer %.1f]",
				c.fid[s], t.cwnd[s], mss, t.cwndCap[s])
		}
		if t.ssthresh[s] < 2*mss*0.999 {
			return fmt.Errorf("netsim: flow %d ssthresh %.1f below 2 MSS", c.fid[s], t.ssthresh[s])
		}
		if t.srtt[s] < t.baseRTT[s]*0.999 || math.IsNaN(t.srtt[s]) {
			return fmt.Errorf("netsim: flow %d srtt %.3gs below base RTT %.3gs", c.fid[s], t.srtt[s], t.baseRTT[s])
		}
		if t.demand[s] < 0 || math.IsNaN(t.demand[s]) {
			return fmt.Errorf("netsim: flow %d negative demand %.3g", c.fid[s], t.demand[s])
		}
		if t.backoff[s] > tcpMaxBackoff {
			return fmt.Errorf("netsim: flow %d RTO backoff %d beyond cap %d", c.fid[s], t.backoff[s], tcpMaxBackoff)
		}
		if t.tstate[s] == tcpRTOWait {
			if t.demand[s] != 0 {
				return fmt.Errorf("netsim: flow %d stalled in RTO but demands %.3g bps", c.fid[s], t.demand[s])
			}
			if !t.rtoEv[s].Pending() {
				return fmt.Errorf("netsim: flow %d stalled in RTO with no pending timer", c.fid[s])
			}
		}
	}
	for l, q := range t.qBytes {
		if math.IsNaN(q) || q < 0 || q > tcpBufferBytes*1.001 {
			return fmt.Errorf("netsim: link %d queue %.1f outside [0, buffer %.0f]", l, q, tcpBufferBytes)
		}
		if (q > 0 || t.offeredBps[l] > 0) && !t.isLive[l] {
			return fmt.Errorf("netsim: link %d holds queue %.1f and offered load %.3g bps but is not live", l, q, t.offeredBps[l])
		}
	}
	return nil
}
