package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"keddah/internal/sim"
)

// noDue marks a slot with no completion due (Network.due).
const noDue sim.Time = -1

// Slot lifecycle states.
const (
	slotFree        uint8 = iota // on the free list
	slotPropagating              // activation (or no-route abort) event pending
	slotLoopback                 // src==dst transfer, not in the active list
	slotActive                   // transferring, in the active list
)

// slotRef pins one occupant of a slot: it goes stale when the slot is
// freed, so a pending event or a snapshot of victims never reaches a
// recycled slot's next flow.
type slotRef struct {
	slot int32
	gen  uint32
}

// ref pins slot s's current occupant.
func (n *Network) ref(s int32) slotRef { return slotRef{slot: s, gen: n.gen[s]} }

// live reports whether r's occupant still holds its slot.
func (n *Network) live(r slotRef) bool {
	return n.gen[r.slot] == r.gen && n.state[r.slot] != slotFree
}

// arg packs r into an engine callback argument; refOf unpacks it.
func (r slotRef) arg() uint64 { return uint64(uint32(r.slot)) | uint64(r.gen)<<32 }

func refOf(arg uint64) slotRef { return slotRef{slot: int32(uint32(arg)), gen: uint32(arg >> 32)} }

// growLen extends s to length n, reallocating with headroom when needed.
func growLen[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n, 2*n)
	copy(out, s)
	return out
}

// growCap raises s's capacity to at least n without changing its length.
func growCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	out := make([]T, len(s), n)
	copy(out, s)
	return out
}

// Reserve pre-sizes flow storage for at least peak concurrent flows, so
// the steady-state loop never grows storage, and the engine's event slab
// to match: one completion event per flow plus activation and coalescing
// headroom. It is cheap to call again with a larger estimate and a no-op
// with a smaller one.
func (n *Network) Reserve(peak int) {
	if peak <= 0 {
		return
	}
	n.fid = growCap(n.fid, peak)
	n.spec = growCap(n.spec, peak)
	n.gen = growCap(n.gen, peak)
	n.state = growCap(n.state, peak)
	n.start = growCap(n.start, peak)
	n.activated = growCap(n.activated, peak)
	n.last = growCap(n.last, peak)
	n.remaining = growCap(n.remaining, peak)
	n.rate = growCap(n.rate, peak)
	n.listIdx = growCap(n.listIdx, peak)
	n.completeEv = growCap(n.completeEv, peak)
	n.due = growCap(n.due, peak)
	n.ticket = growCap(n.ticket, peak)
	n.pathLen = growCap(n.pathLen, peak)
	n.segHead = growCap(n.segHead, peak)
	n.segTail = growCap(n.segTail, peak)
	n.segCount = growCap(n.segCount, peak)
	n.pathArena = growCap(n.pathArena, peak*n.pathStride)
	n.freeSlots = growCap(n.freeSlots, peak)
	n.active = growCap(n.active, peak)
	n.actSeq = growCap(n.actSeq, peak)
	n.parked = growCap(n.parked, peak)
	n.parkPos = growCap(n.parkPos, peak)
	n.rates = growCap(n.rates, peak)
	n.frozen = growCap(n.frozen, peak)
	n.cand = growCap(n.cand, peak)
	if n.recording {
		n.segChunks = growCap(n.segChunks, peak)
	}
	if n.tcp != nil {
		n.tcp.reserve(peak)
	}
	// Per-link index lists: flows × mean path length spread over links,
	// with a floor so small fabrics start usable.
	if nl := len(n.linkFlows); nl > 0 {
		per := 8 * peak / nl
		if per < 8 {
			per = 8
		}
		for i := range n.linkFlows {
			n.linkFlows[i] = growCap(n.linkFlows[i], per)
		}
	}
	// TCP mode holds one more persistent timer per flow (the RTO timer)
	// on top of completion + activation/coalescing headroom.
	mult := 2
	if n.tcp != nil {
		mult = 3
	}
	n.eng.Reserve(mult*peak + 16)
}

// allocSlot takes a slot from the free list or appends a fresh one to
// every parallel array.
func (n *Network) allocSlot() int32 {
	if k := len(n.freeSlots); k > 0 {
		s := n.freeSlots[k-1]
		n.freeSlots = n.freeSlots[:k-1]
		return s
	}
	s := int32(len(n.fid))
	n.fid = append(n.fid, 0)
	n.spec = append(n.spec, FlowSpec{})
	n.gen = append(n.gen, 1)
	n.state = append(n.state, slotFree)
	n.start = append(n.start, 0)
	n.activated = append(n.activated, 0)
	n.last = append(n.last, 0)
	n.remaining = append(n.remaining, 0)
	n.rate = append(n.rate, 0)
	n.listIdx = append(n.listIdx, -1)
	n.actSeq = append(n.actSeq, 0)
	n.parkPos = append(n.parkPos, -1)
	n.completeEv = append(n.completeEv, sim.Event{})
	n.due = append(n.due, noDue)
	n.ticket = append(n.ticket, 0)
	n.pathLen = append(n.pathLen, 0)
	n.segHead = append(n.segHead, -1)
	n.segTail = append(n.segTail, -1)
	n.segCount = append(n.segCount, 0)
	need := (int(s) + 1) * n.pathStride
	n.pathArena = growLen(n.pathArena, need)
	if n.tcp != nil {
		n.tcp.appendSlot()
	}
	return s
}

// freeSlot recycles a slot: the generation bump invalidates every
// outstanding slot reference and the spec (with its callback closures) is
// dropped so finished flows hold nothing alive.
func (n *Network) freeSlot(s int32) {
	n.cancelCompletion(s)
	n.recycleSegments(s)
	n.gen[s]++
	n.state[s] = slotFree
	n.listIdx[s] = -1
	n.pathLen[s] = 0
	n.spec[s] = FlowSpec{}
	n.freeSlots = append(n.freeSlots, s)
}

// path returns slot s's route (a view into the shared arena).
func (n *Network) path(s int32) []LinkID {
	off := int(s) * n.pathStride
	return n.pathArena[off : off+int(n.pathLen[s])]
}

// storePath installs p as slot s's route, growing the arena stride in the
// (rare) case a path outgrows it.
func (n *Network) storePath(s int32, p []LinkID) {
	if len(p) > n.pathStride {
		n.growStride(len(p))
	}
	copy(n.pathArena[int(s)*n.pathStride:], p)
	n.pathLen[s] = int32(len(p))
}

// growStride rebuilds the path arena with a wider per-slot stride,
// preserving every slot's stored path.
func (n *Network) growStride(need int) {
	ns := n.pathStride
	for ns < need {
		ns *= 2
	}
	slots := len(n.fid)
	pa := make([]LinkID, slots*ns)
	for i := 0; i < slots; i++ {
		l := int(n.pathLen[i])
		copy(pa[i*ns:], n.pathArena[i*n.pathStride:i*n.pathStride+l])
	}
	n.pathArena, n.pathStride = pa, ns
}

// setPath routes spec's endpoints into the scratch buffer and installs
// the result for slot s — no per-flow path slice is ever allocated.
func (n *Network) setPath(s int32, spec FlowSpec, fid uint64) error {
	p, err := n.topo.AppendPath(n.pathScratch[:0], spec.Src, spec.Dst, flowHash(spec, fid))
	n.pathScratch = p[:0]
	if err != nil {
		return err
	}
	n.storePath(s, p)
	return nil
}

// segChunkCap sizes one rate-segment chunk (~232 B — small enough to
// recycle freely, large enough that ordinary flows need exactly one).
const segChunkCap = 14

type segChunk struct {
	next int32
	used int32
	seg  [segChunkCap]RateSegment
}

func (n *Network) allocChunk() int32 {
	if n.segFreeHead >= 0 {
		id := n.segFreeHead
		ch := &n.segChunks[id]
		n.segFreeHead = ch.next
		ch.next = -1
		ch.used = 0
		return id
	}
	n.segChunks = append(n.segChunks, segChunk{next: -1})
	return int32(len(n.segChunks) - 1)
}

// appendSegment records a rate change for slot s while recording; it is a
// no-op otherwise, so copySegments then returns nil.
func (n *Network) appendSegment(s int32, rs RateSegment) {
	if !n.recording {
		return
	}
	tail := n.segTail[s]
	if tail < 0 || n.segChunks[tail].used == segChunkCap {
		nc := n.allocChunk()
		if tail < 0 {
			n.segHead[s] = nc
		} else {
			n.segChunks[tail].next = nc
		}
		n.segTail[s] = nc
		tail = nc
	}
	ch := &n.segChunks[tail]
	ch.seg[ch.used] = rs
	ch.used++
	n.segCount[s]++
}

// recycleSegments splices slot s's whole chunk chain onto the free list.
func (n *Network) recycleSegments(s int32) {
	if head := n.segHead[s]; head >= 0 {
		n.segChunks[n.segTail[s]].next = n.segFreeHead
		n.segFreeHead = head
	}
	n.segHead[s] = -1
	n.segTail[s] = -1
	n.segCount[s] = 0
}

// copySegments materialises slot s's rate history as an exact-size slice
// for the finished Flow value.
func (n *Network) copySegments(s int32) []RateSegment {
	count := int(n.segCount[s])
	if count == 0 {
		return nil
	}
	out := make([]RateSegment, 0, count)
	for id := n.segHead[s]; id >= 0; id = n.segChunks[id].next {
		ch := &n.segChunks[id]
		out = append(out, ch.seg[:ch.used]...)
	}
	return out
}

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
	s := n.allocSlot()
	fid := n.seq
	n.seq++
	n.fid[s] = fid
	n.spec[s] = spec
	n.start[s] = n.eng.Now()
	n.remaining[s] = float64(spec.SizeBytes)
	n.rate[s] = 0
	n.due[s] = noDue
	n.state[s] = slotPropagating
	n.metrics.FlowsStarted.Inc()

	var latency int64
	if spec.Src != spec.Dst {
		if err := n.setPath(s, spec, fid); err != nil {
			// Partitioned: park the flow and abort after the connect
			// timeout. (Build guarantees full reachability, so this only
			// happens once link faults are in play.)
			n.eng.AfterCall(noRouteTimeout, n.abortCb, n.ref(s).arg())
			return fid, nil
		}
		latency = n.topo.PathLatencyNs(n.path(s))
	} else {
		latency = 10_000 // 10 µs loopback
	}

	// The flow starts transferring after propagation latency.
	n.eng.AfterCall(sim.Time(latency), n.activateCb, n.ref(s).arg())
	return fid, nil
}

// activate fires after the propagation latency: the flow joins the
// active set (or the loopback fast path) and the allocation goes dirty.
func (n *Network) activate(arg uint64) {
	r := refOf(arg)
	s := r.slot
	if !n.live(r) || n.state[s] != slotPropagating {
		return // aborted while still propagating
	}
	now := n.eng.Now()
	n.activated[s] = now
	n.last[s] = now
	if n.spec[s].Src == n.spec[s].Dst {
		// Loopback: fixed rate, no interaction with fairness.
		n.state[s] = slotLoopback
		n.rate[s] = loopbackBps
		n.appendSegment(s, RateSegment{Start: now, RateBps: n.rate[s]})
		// No reallocation revisits a loopback flow, so it arms at once.
		n.scheduleCompletion(s, sim.MaxTime)
		return
	}
	if !n.topo.pathUp(n.path(s)) {
		// A link on the precomputed path went down during the
		// propagation window: reroute if the fabric still connects
		// the endpoints, abort otherwise.
		if err := n.setPath(s, n.spec[s], n.fid[s]); err != nil {
			n.abortSlot(s)
			return
		}
	}
	n.state[s] = slotActive
	n.actSeq[s] = n.nextAct
	n.nextAct++
	n.listIdx[s] = int32(len(n.active))
	n.active = append(n.active, s)
	n.linkInsert(s)
	if n.tcp != nil {
		n.tcp.onActivate(s)
	}
	n.markDirty()
}

func (n *Network) abortByArg(arg uint64) {
	if r := refOf(arg); n.live(r) {
		n.abortSlot(r.slot)
	}
}

func (n *Network) finishByArg(arg uint64) {
	n.finish(int32(uint32(arg)))
}

// linkInsert adds the slot to the per-link active index at the position
// its listIdx dictates, keeping every list in active-list order. A fresh
// activation holds the largest listIdx and appends in O(len(path)); only
// a reroute of an older flow lands mid-list.
func (n *Network) linkInsert(s int32) {
	li := n.listIdx[s]
	for _, lid := range n.path(s) {
		lst := n.linkFlows[lid]
		if len(lst) == 0 {
			n.loadedPos[lid] = int32(len(n.loaded))
			n.loaded = append(n.loaded, lid)
		}
		at := len(lst)
		for at > 0 && n.listIdx[lst[at-1]] > li {
			at--
		}
		n.linkFlows[lid] = slices.Insert(lst, at, s)
	}
}

// linkRemove deletes the slot from the per-link index, closing the gap
// in place so each list keeps its active-list order, and unloads links
// it leaves empty. The cost is the length of the lists on its path.
func (n *Network) linkRemove(s int32) {
	for _, lid := range n.path(s) {
		lst := n.linkFlows[lid]
		i := slices.Index(lst, s)
		lst = slices.Delete(lst, i, i+1)
		n.linkFlows[lid] = lst
		if len(lst) == 0 {
			p, last := n.loadedPos[lid], n.loaded[len(n.loaded)-1]
			n.loaded[p] = last
			n.loadedPos[last] = p
			n.loaded = n.loaded[:len(n.loaded)-1]
			n.loadedPos[lid] = -1
		}
	}
}

// park moves slot s, stalled in RTO wait with its rate already zeroed,
// out of the per-link index and into the parked set. The caller takes it
// out of active.
func (n *Network) park(s int32) {
	n.linkRemove(s)
	n.listIdx[s] = -1
	n.parkPos[s] = int32(len(n.parked))
	n.parked = append(n.parked, s)
}

// unpark returns parked slot s to active at its activation-order
// position, renumbering the slots after it, and to the per-link index.
// It was last charged when it parked, at rate 0, so its charge clock
// restarts now.
func (n *Network) unpark(s int32) {
	n.dropParked(s)
	key := n.actSeq[s]
	lo, hi := 0, len(n.active)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.actSeq[n.active[m]] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	n.active = slices.Insert(n.active, lo, s)
	for j := lo; j < len(n.active); j++ {
		n.listIdx[n.active[j]] = int32(j)
	}
	n.linkInsert(s)
	n.last[s] = n.eng.Now()
}

// dropParked deletes slot s from the parked set.
func (n *Network) dropParked(s int32) {
	p, last := n.parkPos[s], n.parked[len(n.parked)-1]
	n.parked[p] = last
	n.parkPos[last] = p
	n.parked = n.parked[:len(n.parked)-1]
	n.parkPos[s] = -1
}

// withParked appends to slots, which must be in activation order, the
// parked slots keep selects, and returns the result in activation order.
// Fault handling enumerates its victims through it, so a stalled flow is
// met exactly where it would stand in active.
func (n *Network) withParked(slots []int32, keep func(s int32) bool) []int32 {
	had := len(slots)
	for _, s := range n.parked {
		if keep(s) {
			slots = append(slots, s)
		}
	}
	if len(slots) > had {
		slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(n.actSeq[a], n.actSeq[b]) })
	}
	return slots
}

// markDirty coalesces reallocation requests occurring at the same instant
// onto the network's single persistent dirty timer.
func (n *Network) markDirty() {
	if n.reallocPending {
		return
	}
	n.reallocPending = true
	_ = n.dirtyE.Schedule(n.eng.Now())
}

func (n *Network) dirty(uint64) {
	n.reallocPending = false
	n.reallocate()
}

// settle charges elapsed transfer progress to every active flow. In TCP
// mode the same charge feeds the per-tick acked-byte accumulator (window
// growth tracks delivered bytes exactly, independent of tick cadence) and
// the link queues integrate over the elapsed interval. A second settle at
// the same instant has nothing to charge and returns at once.
func (n *Network) settle() {
	now := n.eng.Now()
	if now == n.settledAt {
		return
	}
	n.settledAt = now
	// Most flows were last charged at the same instant, so the interval's
	// length in seconds is converted once per distinct interval.
	var lastDt sim.Time
	var secs float64
	for _, s := range n.active {
		if dt := now - n.last[s]; dt > 0 && n.rate[s] > 0 {
			if dt != lastDt {
				lastDt, secs = dt, dt.Seconds()
			}
			d := n.rate[s] * secs / 8
			n.remaining[s] -= d
			if n.remaining[s] < 0 {
				n.remaining[s] = 0
			}
			if n.tcp != nil {
				n.tcp.acked[s] += d
			}
		}
		n.last[s] = now
	}
	if n.tcp != nil {
		n.tcp.settleQueues(now)
	}
}

// reallocate recomputes fair rates for all active flows and reschedules
// the completion events whose rate actually changed. The rate vector is
// computed into the rates scratch buffer by the configured allocator.
// Parked flows take no part, but they still count as transferring: a
// reallocation with only parked flows left counts and advances armedTo
// as one over flows that all demand nothing would.
func (n *Network) reallocate() {
	n.settle()

	nf := len(n.active)
	if nf == 0 && len(n.parked) == 0 {
		if n.tcp != nil {
			n.tcp.clearOffered() // let queues drain across idle gaps
		}
		return
	}
	n.resetScratch(nf)
	n.metrics.Reallocs.Inc()
	n.metrics.ActiveFlowsMax.SetMax(float64(nf + len(n.parked)))

	switch {
	case n.tcp != nil:
		n.tcp.updateOffered()
		n.maxMinFill(n.tcp.demand)
	case n.equalSplit:
		n.equalSplitRates()
	default:
		n.maxMinFill(nil)
	}

	n.applyRates()
}

// resetScratch sizes and clears the per-flow allocation buffers. A
// network reserved for its peak never grows them; one that was not grows
// them with headroom, so a rising active count reallocates rarely.
func (n *Network) resetScratch(nf int) {
	n.rates = growLen(n.rates, nf)
	n.frozen = growLen(n.frozen, nf)
	n.cand = growCap(n.cand, cap(n.frozen))
	clear(n.frozen)
}

// applyRates installs the rates vector. A flow whose rate changed gets a
// new due time. A flow whose rate is unchanged (within rateTolerance)
// keeps its due time and ticket — the unchanged rate still drains the
// residue then — and its completion is armed once that time comes inside
// the horizon. One due by armedTo is armed already: the last applyRates
// armed it, or scheduleCompletion did when it set the due time.
//
// A TCP flow stalled in RTO wait demands nothing, so this pass zeroes its
// rate and cancels its completion; it then parks, and active (with the
// rates vector, which stays indexed by active-list position) closes up
// behind it in order. Every later pass would leave it untouched until its
// retransmission timer fires, so parking changes no rate, no segment and
// no engine ticket.
func (n *Network) applyRates() {
	now := n.eng.Now()
	w := 0
	for i, s := range n.active {
		newRate := n.rates[i]
		if rateEqual(n.rate[s], newRate) {
			if d := n.due[s]; d <= n.horizon && d > n.armedTo {
				n.armCompletion(s)
			}
		} else {
			n.rate[s] = newRate
			n.appendSegment(s, RateSegment{Start: now, RateBps: newRate})
			n.scheduleCompletion(s, n.horizon)
		}
		if n.tcp != nil && n.tcp.tstate[s] == tcpRTOWait {
			n.park(s)
			continue
		}
		if w != i {
			n.active[w] = s
			n.listIdx[s] = int32(w)
			n.rates[w] = newRate
		}
		w++
	}
	n.active = n.active[:w]
	n.rates = n.rates[:w]
	n.armedTo = n.horizon
}

// scheduleCompletion sets the slot's due time for its current rate and
// residue, taking an engine ticket exactly where an eager re-arm would
// have taken its sequence number, and arms the completion timer when the
// due time is at or before horizon. Flows with no rate — or a rate so
// small completion would fall past the end of simulated time — get no
// due time and park with no pending event until a future reallocation
// revives them.
func (n *Network) scheduleCompletion(s int32, horizon sim.Time) {
	n.due[s] = noDue
	if n.rate[s] > 0 {
		now := n.eng.Now()
		if d := durationFor(n.remaining[s], n.rate[s]); d < sim.MaxTime-now {
			n.due[s], n.ticket[s] = now+d, n.eng.Ticket()
		}
	}
	if d := n.due[s]; d != noDue && d <= horizon {
		n.armCompletion(s)
	} else {
		n.cancelCompletion(s)
	}
}

// armCompletion arms slot s's persistent completion timer at its due
// time under its ticket, creating the timer on the slot's first use.
func (n *Network) armCompletion(s int32) {
	if !n.completeEv[s].Valid() {
		n.completeEv[s] = n.eng.NewTimer(n.finishCb, uint64(uint32(s)))
	}
	_ = n.completeEv[s].ScheduleTicket(n.due[s], n.ticket[s])
}

func (n *Network) cancelCompletion(s int32) {
	n.completeEv[s].Cancel()
}

// finish completes a flow: removes it from the active set, snapshots and
// recycles the slot, notifies taps and the owner callback, and triggers
// reallocation for the survivors.
func (n *Network) finish(s int32) {
	switch n.state[s] {
	case slotLoopback:
		n.remaining[s] = 0
	case slotActive:
		// Settle to charge the final interval.
		n.settle()
		if n.remaining[s] > 1e-3 {
			// The event fired before the flow truly drained (float
			// rounding or a stale event). Reschedule for the residue —
			// never strand a flow without a due completion.
			n.scheduleCompletion(s, n.horizon)
			return
		}
		n.remaining[s] = 0
		n.removeActive(s)
		n.markDirty()
	default:
		return // already torn down
	}
	n.completeSlot(s, false)
}

// removeActive deletes transferring slot s from the active set,
// preserving order: the slot knows its own position, so no scan — just
// close the gap and renumber the tail, which keeps listIdx monotonic
// along every per-link list — and drops it from the per-link index. A
// parked slot only leaves the parked set.
func (n *Network) removeActive(s int32) {
	if n.parkPos[s] >= 0 {
		n.dropParked(s)
	} else {
		i := int(n.listIdx[s])
		last := len(n.active) - 1
		copy(n.active[i:], n.active[i+1:])
		n.active = n.active[:last]
		for j := i; j < last; j++ {
			n.listIdx[n.active[j]] = int32(j)
		}
		n.linkRemove(s)
	}
	if n.tcp != nil {
		n.tcp.onRemove(s)
	}
}

// abortSlot tears a flow down before completion: it leaves the active
// set, taps observe the aborted Flow with its partial progress in
// Transferred, and OnAbort — not OnComplete — fires.
func (n *Network) abortSlot(s int32) {
	switch n.state[s] {
	case slotFree:
		return
	case slotActive:
		n.settle()
		n.removeActive(s)
		n.markDirty()
	}
	n.cancelCompletion(s)
	n.completeSlot(s, true)
}

// completeSlot retires a finished (or aborted) flow: counters and
// telemetry update, its final state is copied into a Flow value, the slot
// returns to the free list, and only then do taps and the owner callback
// receive the value, so they are free to start new flows that reuse the
// storage.
func (n *Network) completeSlot(s int32, aborted bool) {
	spec := n.spec[s]
	f := Flow{
		ID:          n.fid[s],
		Spec:        spec,
		Start:       n.start[s],
		End:         n.eng.Now(),
		Transferred: transferredOf(spec.SizeBytes, n.remaining[s]),
		Aborted:     aborted,
		Segments:    n.copySegments(s),
	}
	if aborted {
		n.abortedCount++
		n.metrics.FlowsAborted.Inc()
	} else {
		n.completed++
		n.totalBytes += float64(spec.SizeBytes)
		n.metrics.FlowsCompleted.Inc()
		n.metrics.FlowBytes.Observe(spec.SizeBytes)
	}
	n.freeSlot(s)
	for _, t := range n.taps {
		t.FlowCompleted(f)
	}
	if aborted {
		if spec.OnAbort != nil {
			spec.OnAbort(f)
		}
	} else if spec.OnComplete != nil {
		spec.OnComplete(f)
	}
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
	down := !up
	if n.topo.linkDown[lid] == down {
		return nil
	}
	n.settle()
	if err := n.topo.SetLinkDown(lid, down); err != nil {
		return err
	}
	n.metrics.LinkTransitions.Inc()
	if down {
		// Snapshot as generation-checked refs, parked flows included in
		// activation order: rerouting mutates the per-link index in place,
		// and an abort callback could recycle a victim's slot for a
		// brand-new flow mid-loop.
		slots := n.withParked(slices.Clone(n.linkFlows[lid]), func(s int32) bool {
			return slices.Contains(n.path(s), lid)
		})
		victims := make([]slotRef, 0, len(slots))
		for _, s := range slots {
			victims = append(victims, n.ref(s))
		}
		for _, v := range victims {
			if n.live(v) && n.state[v.slot] == slotActive {
				n.rerouteOrAbort(v.slot)
			}
		}
	}
	n.markDirty()
	return nil
}

// rerouteOrAbort moves a transferring flow onto a fresh shortest path,
// or aborts it when the fabric no longer connects its endpoints. A parked
// flow is in no link list, so only its stored path changes.
func (n *Network) rerouteOrAbort(s int32) {
	p, err := n.topo.AppendPath(n.pathScratch[:0], n.spec[s].Src, n.spec[s].Dst, flowHash(n.spec[s], n.fid[s]))
	n.pathScratch = p[:0]
	if err != nil {
		n.abortSlot(s)
		return
	}
	if n.parkPos[s] >= 0 {
		n.storePath(s, p)
	} else {
		n.linkRemove(s) // uses the old path
		n.storePath(s, p)
		n.linkInsert(s)
	}
	if n.tcp != nil {
		n.tcp.onReroute(s)
	}
	n.metrics.Reroutes.Inc()
}

// AbortFlowsWhere aborts every actively-transferring flow matching pred
// and returns how many were torn down (flows still in their propagation
// window are too young to have endpoint state and are left alone). It
// asks pred about every transferring flow, parked ones included, in
// activation order. Simulated daemon crashes use it to kill the TCP
// connections the dead process owned.
func (n *Network) AbortFlowsWhere(pred func(FlowSpec) bool) int {
	slots := n.active
	if len(n.parked) > 0 {
		slots = n.withParked(slices.Clone(n.active), func(int32) bool { return true })
	}
	victims := make([]slotRef, 0, 4)
	for _, s := range slots {
		if pred(n.spec[s]) {
			victims = append(victims, n.ref(s))
		}
	}
	for _, v := range victims {
		if n.live(v) {
			n.abortSlot(v.slot)
		}
	}
	return len(victims)
}
