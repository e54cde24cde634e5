package netsim

import (
	"fmt"
	"math"

	"keddah/internal/sim"
)

// tcpCore is the TCP transport attached to the struct-of-arrays flow
// storage when Config.Transport is "tcp". Every active flow carries a TCP
// state machine (slow start, AIMD congestion avoidance, fast retransmit,
// RTO with exponential backoff) and every link a fluid droptail queue; a
// single persistent ack-clock timer steps all flows once per tick. It has
// no allocator of its own: reallocate hands its per-slot demand vector
// (cwnd/srtt) to the same progressive filling the fluid transport uses
// (soaCore.maxMinFill), so a window-limited flow freezes at its demand,
// a stalled flow (RTO wait, demand 0) claims nothing, and the slack
// redistributes to flows that can use it.
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
// hook in soaCore degrades to a nil check and the fluid trajectory is
// byte-identical to a build without this file.
type tcpCore struct {
	c   *soaCore
	cfg TCPConfig

	// Per-slot state, parallel to soaCore's slot arrays.
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

	// Per-link droptail queue model.
	qBytes     []float64 // current queue depth, bytes
	offeredBps []float64 // sum of crossing flows' demand, bps
	overflowAt []sim.Time
	lastQ      sim.Time

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

// tcpMaxBackoff caps RTO exponential backoff at 2^6 = 64x.
const tcpMaxBackoff = 6

func newTCPCore(c *soaCore) *tcpCore {
	t := &tcpCore{
		c:          c,
		cfg:        c.cfg.TCP.withDefaults(),
		qBytes:     make([]float64, len(c.topo.links)),
		offeredBps: make([]float64, len(c.topo.links)),
		overflowAt: make([]sim.Time, len(c.topo.links)),
	}
	for i := range t.overflowAt {
		t.overflowAt[i] = -1
	}
	t.tickCb = t.tick
	t.rtoCb = t.rtoFire
	t.tickEv = c.eng.NewTimer(t.tickCb, 0)
	return t
}

// reserve pre-sizes the per-slot arrays alongside soaCore.reserve.
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
		bneck = t.c.cfg.LoopbackBps
	}
	w := bneck/8*rtt + t.cfg.BufferBytes
	if w < 2*t.cfg.MSSBytes {
		w = 2 * t.cfg.MSSBytes
	}
	t.cwndCap[s] = w
}

// onActivate initialises TCP state when a flow joins the active set.
func (t *tcpCore) onActivate(s int32) {
	now := t.c.eng.Now()
	t.refreshPath(s)
	iw := t.cfg.InitWindowBytes
	if iw > t.cwndCap[s] {
		iw = t.cwndCap[s]
	}
	if iw < t.cfg.MSSBytes {
		iw = t.cfg.MSSBytes
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
		_ = t.tickEv.Schedule(now + sim.Time(t.cfg.TickNs))
	}
}

// onReroute re-derives path parameters after a fault moved the flow and
// clamps the window into the new path's bounds.
func (t *tcpCore) onReroute(s int32) {
	t.refreshPath(s)
	if t.cwnd[s] > t.cwndCap[s] {
		t.cwnd[s] = t.cwndCap[s]
	}
	if t.cwnd[s] < t.cfg.MSSBytes {
		t.cwnd[s] = t.cfg.MSSBytes
	}
}

// onRemove releases TCP state when a flow leaves the active set.
func (t *tcpCore) onRemove(s int32) {
	t.rtoEv[s].Cancel()
	t.demand[s] = 0
	t.acked[s] = 0
}

// settleQueues integrates every link's droptail queue over the interval
// since the last settle: depth grows by (offered demand − capacity) and a
// queue pinned at its buffer while oversubscribed timestamps an overflow
// that flows crossing the link treat as loss at their next tick.
func (t *tcpCore) settleQueues(now sim.Time) {
	dt := (now - t.lastQ).Seconds()
	t.lastQ = now
	if dt <= 0 {
		return
	}
	maxQ := 0.0
	for l := range t.qBytes {
		net := (t.offeredBps[l] - t.c.topo.links[l].CapacityBps) / 8
		q := t.qBytes[l] + net*dt
		if q >= t.cfg.BufferBytes {
			q = t.cfg.BufferBytes
			if net > 0 {
				t.overflowAt[l] = now
			}
		}
		if q < 0 {
			q = 0
		}
		t.qBytes[l] = q
		if q > maxQ {
			maxQ = q
		}
	}
	if maxQ > 0 {
		t.c.nw.metrics.TCPQueueMaxBytes.SetMax(maxQ)
	}
}

// updateOffered rebuilds the per-link offered load from current demands.
// Called by reallocate after demands changed, so queue integration over
// the *next* interval uses the new windows.
func (t *tcpCore) updateOffered() {
	for i := range t.offeredBps {
		t.offeredBps[i] = 0
	}
	for _, s := range t.c.active {
		d := t.demand[s]
		if d <= 0 {
			continue
		}
		for _, lid := range t.c.path(s) {
			t.offeredBps[lid] += d
		}
	}
}

// clearOffered zeroes the offered load once the active set drains, so
// queues integrate down to empty across idle gaps.
func (t *tcpCore) clearOffered() {
	for i := range t.offeredBps {
		t.offeredBps[i] = 0
	}
}

// tick is the global ack clock: charge progress (settle), step every
// active flow's state machine, then trigger one coalesced reallocation.
func (t *tcpCore) tick(uint64) {
	c := t.c
	if len(c.active) == 0 {
		return // re-armed by the next activation
	}
	c.settle()
	now := c.eng.Now()
	for _, s := range c.active {
		t.step(s, now)
	}
	c.markDirty()
	_ = t.tickEv.Schedule(now + sim.Time(t.cfg.TickNs))
}

// pathLossSince reports whether any link on s's path overflowed after the
// flow's last loss reaction — at most one window reduction per overflow
// episode per tick, for every flow sharing the link (synchronized loss).
func (t *tcpCore) pathLossSince(s int32) bool {
	loss := t.lossAt[s]
	for _, lid := range t.c.path(s) {
		if t.overflowAt[lid] > loss {
			return true
		}
	}
	return false
}

// pathQueueDelay sums the queueing delay along s's path in seconds.
func (t *tcpCore) pathQueueDelay(s int32) float64 {
	var d float64
	for _, lid := range t.c.path(s) {
		d += t.qBytes[lid] * 8 / t.c.topo.links[lid].CapacityBps
	}
	return d
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
	if t.pathLossSince(s) {
		t.onLoss(s, now)
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
			t.cwnd[s] += t.cfg.MSSBytes * acked / t.cwnd[s]
		}
		if t.cwnd[s] > t.cwndCap[s] {
			t.cwnd[s] = t.cwndCap[s]
		}
		t.c.nw.metrics.TCPCwndMaxBytes.SetMax(t.cwnd[s])
	}
	rtt := t.baseRTT[s] + t.pathQueueDelay(s)
	t.srtt[s] += (rtt - t.srtt[s]) / 8
	t.demand[s] = t.cwnd[s] * 8 / t.srtt[s]
}

// onLoss reacts to queue overflow on the flow's path. A window of at least
// four segments has enough duplicate acks to fast-retransmit: halve and
// keep transmitting. A smaller window lost everything in flight — the
// connection stalls silent until its retransmission timer fires.
func (t *tcpCore) onLoss(s int32, now sim.Time) {
	t.lossAt[s] = now
	mss := t.cfg.MSSBytes
	half := t.cwnd[s] / 2
	if half < 2*mss {
		half = 2 * mss
	}
	t.ssthresh[s] = half
	if t.cwnd[s] >= 4*mss {
		t.cwnd[s] = half
		t.tstate[s] = tcpAvoid
		rtt := t.baseRTT[s] + t.pathQueueDelay(s)
		t.srtt[s] += (rtt - t.srtt[s]) / 8
		t.demand[s] = t.cwnd[s] * 8 / t.srtt[s]
		t.fastRtx++
		t.c.nw.metrics.TCPFastRetransmits.Inc()
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
	if rto < float64(t.cfg.RTOMinNs) {
		rto = float64(t.cfg.RTOMinNs)
	}
	rto *= float64(int64(1) << t.backoff[s])
	if rto > float64(t.cfg.RTOMaxNs) {
		rto = float64(t.cfg.RTOMaxNs)
	}
	if !t.rtoEv[s].Valid() {
		t.rtoEv[s] = t.c.eng.NewTimer(t.rtoCb, uint64(uint32(s)))
	}
	_ = t.rtoEv[s].Schedule(now + sim.Time(int64(rto)))
}

// rtoFire ends an RTO stall: the window collapses to one segment and the
// flow probes again from slow start, with the next timeout backed off
// exponentially until progress resets it.
func (t *tcpCore) rtoFire(arg uint64) {
	s := int32(uint32(arg))
	c := t.c
	if c.state[s] != slotActive || t.tstate[s] != tcpRTOWait {
		return
	}
	now := c.eng.Now()
	c.settle()
	t.rtoFired++
	c.nw.metrics.TCPTimeouts.Inc()
	if t.backoff[s] < tcpMaxBackoff {
		t.backoff[s]++
	}
	t.cwnd[s] = t.cfg.MSSBytes
	t.tstate[s] = tcpSlowStart
	t.lossAt[s] = now
	t.acked[s] = 0
	t.demand[s] = t.cwnd[s] * 8 / t.srtt[s]
	c.markDirty()
}

// verify checks the TCP state machine's structural invariants: windows
// inside [MSS, BDP+buffer], thresholds and RTTs sane, stalled flows
// demand-free with a pending retransmission timer, queues inside their
// buffers. Wired into Network.VerifyState, so the invariants layer
// (keddah_checks) sweeps it during captures.
func (t *tcpCore) verify() error {
	c := t.c
	mss := t.cfg.MSSBytes
	for _, s := range c.active {
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
		if math.IsNaN(q) || q < 0 || q > t.cfg.BufferBytes*1.001 {
			return fmt.Errorf("netsim: link %d queue %.1f outside [0, buffer %.0f]", l, q, t.cfg.BufferBytes)
		}
	}
	return nil
}
