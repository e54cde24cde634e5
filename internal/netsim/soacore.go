package netsim

import (
	"cmp"
	"slices"

	"keddah/internal/sim"
)

// soaCore is the flow storage engine: an arena-per-capture,
// struct-of-arrays layout where every per-flow attribute lives in a
// parallel slice keyed by an int32 slot id. Slots are recycled through a
// free list and generation-counted (a pending activation or abort event,
// or a victim snapshot, can never touch a slot's next occupant), flow
// paths live in one shared arena indexed by slot × stride, and
// rate-history segments — recorded only while a RateTap is attached —
// come from a chunk pool linked by int32 next ids. A flow leaves the core
// once, as a Flow value built on the stack when it completes or aborts.
// Together with the engine's event slab and persistent per-slot
// completion timers, a settled capture loop — start, activate,
// reallocate, complete, recycle — performs zero heap allocations, with
// taps and completion callbacks attached.
//
// Its trajectories are fenced by committed golden digests of whole
// captures and of per-flow outcomes, and its allocations are checked
// against the from-scratch max-min oracle (maxMinRates) by the tests and
// by StrictChecks sweeps.
type soaCore struct {
	nw   *Network
	eng  *sim.Engine
	topo *Topology
	cfg  Config

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

// noDue marks a slot with no completion due (soaCore.due).
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
func (c *soaCore) ref(s int32) slotRef { return slotRef{slot: s, gen: c.gen[s]} }

// live reports whether r's occupant still holds its slot.
func (c *soaCore) live(r slotRef) bool {
	return c.gen[r.slot] == r.gen && c.state[r.slot] != slotFree
}

// arg packs r into an engine callback argument; refOf unpacks it.
func (r slotRef) arg() uint64 { return uint64(uint32(r.slot)) | uint64(r.gen)<<32 }

func refOf(arg uint64) slotRef { return slotRef{slot: int32(uint32(arg)), gen: uint32(arg >> 32)} }

func newSoaCore(nw *Network, tr Transport) *soaCore {
	nl := len(nw.topo.links)
	c := &soaCore{
		nw:          nw,
		eng:         nw.eng,
		topo:        nw.topo,
		cfg:         nw.cfg,
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
	for i := range c.loadedPos {
		c.loadedPos[i] = -1
	}
	c.activateCb = c.activate
	c.abortCb = c.abortByArg
	c.finishCb = c.finishByArg
	c.dirtyE = c.eng.NewTimer(c.dirty, 0)
	if tr == TransportTCP {
		c.tcp = newTCPCore(c)
	}
	return c
}

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

// reserve pre-sizes every slab for peak concurrent flows so the
// steady-state loop never grows storage.
func (c *soaCore) reserve(peak int) {
	c.fid = growCap(c.fid, peak)
	c.spec = growCap(c.spec, peak)
	c.gen = growCap(c.gen, peak)
	c.state = growCap(c.state, peak)
	c.start = growCap(c.start, peak)
	c.activated = growCap(c.activated, peak)
	c.last = growCap(c.last, peak)
	c.remaining = growCap(c.remaining, peak)
	c.rate = growCap(c.rate, peak)
	c.listIdx = growCap(c.listIdx, peak)
	c.completeEv = growCap(c.completeEv, peak)
	c.due = growCap(c.due, peak)
	c.ticket = growCap(c.ticket, peak)
	c.pathLen = growCap(c.pathLen, peak)
	c.segHead = growCap(c.segHead, peak)
	c.segTail = growCap(c.segTail, peak)
	c.segCount = growCap(c.segCount, peak)
	c.pathArena = growCap(c.pathArena, peak*c.pathStride)
	c.freeSlots = growCap(c.freeSlots, peak)
	c.active = growCap(c.active, peak)
	c.actSeq = growCap(c.actSeq, peak)
	c.parked = growCap(c.parked, peak)
	c.parkPos = growCap(c.parkPos, peak)
	c.rates = growCap(c.rates, peak)
	c.frozen = growCap(c.frozen, peak)
	c.cand = growCap(c.cand, peak)
	if c.recording {
		c.segChunks = growCap(c.segChunks, peak)
	}
	if c.tcp != nil {
		c.tcp.reserve(peak)
	}
	// Per-link index lists: flows × mean path length spread over links,
	// with a floor so small fabrics start usable.
	if nl := len(c.linkFlows); nl > 0 {
		per := 8 * peak / nl
		if per < 8 {
			per = 8
		}
		for i := range c.linkFlows {
			c.linkFlows[i] = growCap(c.linkFlows[i], per)
		}
	}
}

// allocSlot takes a slot from the free list or appends a fresh one to
// every parallel array.
func (c *soaCore) allocSlot() int32 {
	if n := len(c.freeSlots); n > 0 {
		s := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return s
	}
	s := int32(len(c.fid))
	c.fid = append(c.fid, 0)
	c.spec = append(c.spec, FlowSpec{})
	c.gen = append(c.gen, 1)
	c.state = append(c.state, slotFree)
	c.start = append(c.start, 0)
	c.activated = append(c.activated, 0)
	c.last = append(c.last, 0)
	c.remaining = append(c.remaining, 0)
	c.rate = append(c.rate, 0)
	c.listIdx = append(c.listIdx, -1)
	c.actSeq = append(c.actSeq, 0)
	c.parkPos = append(c.parkPos, -1)
	c.completeEv = append(c.completeEv, sim.Event{})
	c.due = append(c.due, noDue)
	c.ticket = append(c.ticket, 0)
	c.pathLen = append(c.pathLen, 0)
	c.segHead = append(c.segHead, -1)
	c.segTail = append(c.segTail, -1)
	c.segCount = append(c.segCount, 0)
	need := (int(s) + 1) * c.pathStride
	c.pathArena = growLen(c.pathArena, need)
	if c.tcp != nil {
		c.tcp.appendSlot()
	}
	return s
}

// freeSlot recycles a slot: the generation bump invalidates every
// outstanding slot reference and the spec (with its callback closures) is
// dropped so finished flows hold nothing alive.
func (c *soaCore) freeSlot(s int32) {
	c.cancelCompletion(s)
	c.recycleSegments(s)
	c.gen[s]++
	c.state[s] = slotFree
	c.listIdx[s] = -1
	c.pathLen[s] = 0
	c.spec[s] = FlowSpec{}
	c.freeSlots = append(c.freeSlots, s)
}

// path returns slot s's route (a view into the shared arena).
func (c *soaCore) path(s int32) []LinkID {
	off := int(s) * c.pathStride
	return c.pathArena[off : off+int(c.pathLen[s])]
}

// storePath installs p as slot s's route, growing the arena stride in the
// (rare) case a path outgrows it.
func (c *soaCore) storePath(s int32, p []LinkID) {
	if len(p) > c.pathStride {
		c.growStride(len(p))
	}
	copy(c.pathArena[int(s)*c.pathStride:], p)
	c.pathLen[s] = int32(len(p))
}

// growStride rebuilds the path arena with a wider per-slot stride,
// preserving every slot's stored path.
func (c *soaCore) growStride(need int) {
	ns := c.pathStride
	for ns < need {
		ns *= 2
	}
	slots := len(c.fid)
	pa := make([]LinkID, slots*ns)
	for i := 0; i < slots; i++ {
		l := int(c.pathLen[i])
		copy(pa[i*ns:], c.pathArena[i*c.pathStride:i*c.pathStride+l])
	}
	c.pathArena, c.pathStride = pa, ns
}

// setPath routes spec's endpoints into the scratch buffer and installs
// the result for slot s — no per-flow path slice is ever allocated.
func (c *soaCore) setPath(s int32, spec FlowSpec, fid uint64) error {
	p, err := c.topo.AppendPath(c.pathScratch[:0], spec.Src, spec.Dst, flowHash(spec, fid))
	c.pathScratch = p[:0]
	if err != nil {
		return err
	}
	c.storePath(s, p)
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

func (c *soaCore) allocChunk() int32 {
	if c.segFreeHead >= 0 {
		id := c.segFreeHead
		ch := &c.segChunks[id]
		c.segFreeHead = ch.next
		ch.next = -1
		ch.used = 0
		return id
	}
	c.segChunks = append(c.segChunks, segChunk{next: -1})
	return int32(len(c.segChunks) - 1)
}

// recordRates turns rate-history recording on and sizes the chunk pool
// for the peak the slot slabs were reserved for (callers reserve before
// they attach taps).
func (c *soaCore) recordRates() {
	c.recording = true
	c.segChunks = growCap(c.segChunks, cap(c.fid))
}

// appendSegment records a rate change for slot s while recording; it is a
// no-op otherwise, so copySegments then returns nil.
func (c *soaCore) appendSegment(s int32, rs RateSegment) {
	if !c.recording {
		return
	}
	tail := c.segTail[s]
	if tail < 0 || c.segChunks[tail].used == segChunkCap {
		nc := c.allocChunk()
		if tail < 0 {
			c.segHead[s] = nc
		} else {
			c.segChunks[tail].next = nc
		}
		c.segTail[s] = nc
		tail = nc
	}
	ch := &c.segChunks[tail]
	ch.seg[ch.used] = rs
	ch.used++
	c.segCount[s]++
}

// recycleSegments splices slot s's whole chunk chain onto the free list.
func (c *soaCore) recycleSegments(s int32) {
	if head := c.segHead[s]; head >= 0 {
		c.segChunks[c.segTail[s]].next = c.segFreeHead
		c.segFreeHead = head
	}
	c.segHead[s] = -1
	c.segTail[s] = -1
	c.segCount[s] = 0
}

// copySegments materialises slot s's rate history as an exact-size slice
// for the finished Flow value.
func (c *soaCore) copySegments(s int32) []RateSegment {
	n := int(c.segCount[s])
	if n == 0 {
		return nil
	}
	out := make([]RateSegment, 0, n)
	for id := c.segHead[s]; id >= 0; id = c.segChunks[id].next {
		ch := &c.segChunks[id]
		out = append(out, ch.seg[:ch.used]...)
	}
	return out
}

// startFlow books a slot for the validated spec and returns its flow ID.
func (c *soaCore) startFlow(spec FlowSpec) uint64 {
	s := c.allocSlot()
	fid := c.seq
	c.seq++
	c.fid[s] = fid
	c.spec[s] = spec
	c.start[s] = c.eng.Now()
	c.remaining[s] = float64(spec.SizeBytes)
	c.rate[s] = 0
	c.due[s] = noDue
	c.state[s] = slotPropagating
	c.nw.metrics.FlowsStarted.Inc()

	var latency int64
	if spec.Src != spec.Dst {
		if err := c.setPath(s, spec, fid); err != nil {
			// Partitioned: park the flow and abort after the connect
			// timeout. (Build guarantees full reachability, so this only
			// happens once link faults are in play.)
			c.eng.AfterCall(noRouteTimeout, c.abortCb, c.ref(s).arg())
			return fid
		}
		latency = c.topo.PathLatencyNs(c.path(s))
	} else {
		latency = 10_000 // 10 µs loopback
	}

	// The flow starts transferring after propagation latency.
	c.eng.AfterCall(sim.Time(latency), c.activateCb, c.ref(s).arg())
	return fid
}

// activate fires after the propagation latency: the flow joins the
// active set (or the loopback fast path) and the allocation goes dirty.
func (c *soaCore) activate(arg uint64) {
	r := refOf(arg)
	s := r.slot
	if !c.live(r) || c.state[s] != slotPropagating {
		return // aborted while still propagating
	}
	now := c.eng.Now()
	c.activated[s] = now
	c.last[s] = now
	if c.spec[s].Src == c.spec[s].Dst {
		// Loopback: fixed rate, no interaction with fairness.
		c.state[s] = slotLoopback
		c.rate[s] = loopbackBps
		c.appendSegment(s, RateSegment{Start: now, RateBps: c.rate[s]})
		// No reallocation revisits a loopback flow, so it arms at once.
		c.scheduleCompletion(s, sim.MaxTime)
		return
	}
	if !c.topo.pathUp(c.path(s)) {
		// A link on the precomputed path went down during the
		// propagation window: reroute if the fabric still connects
		// the endpoints, abort otherwise.
		if err := c.setPath(s, c.spec[s], c.fid[s]); err != nil {
			c.abortSlot(s)
			return
		}
	}
	c.state[s] = slotActive
	c.actSeq[s] = c.nextAct
	c.nextAct++
	c.listIdx[s] = int32(len(c.active))
	c.active = append(c.active, s)
	c.linkInsert(s)
	if c.tcp != nil {
		c.tcp.onActivate(s)
	}
	c.markDirty()
}

func (c *soaCore) abortByArg(arg uint64) {
	if r := refOf(arg); c.live(r) {
		c.abortSlot(r.slot)
	}
}

func (c *soaCore) finishByArg(arg uint64) {
	c.finish(int32(uint32(arg)))
}

// linkInsert adds the slot to the per-link active index at the position
// its listIdx dictates, keeping every list in active-list order. A fresh
// activation holds the largest listIdx and appends in O(len(path)); only
// a reroute of an older flow lands mid-list.
func (c *soaCore) linkInsert(s int32) {
	li := c.listIdx[s]
	for _, lid := range c.path(s) {
		lst := c.linkFlows[lid]
		if len(lst) == 0 {
			c.loadedPos[lid] = int32(len(c.loaded))
			c.loaded = append(c.loaded, lid)
		}
		at := len(lst)
		for at > 0 && c.listIdx[lst[at-1]] > li {
			at--
		}
		c.linkFlows[lid] = slices.Insert(lst, at, s)
	}
}

// linkRemove deletes the slot from the per-link index, closing the gap
// in place so each list keeps its active-list order, and unloads links
// it leaves empty. The cost is the length of the lists on its path.
func (c *soaCore) linkRemove(s int32) {
	for _, lid := range c.path(s) {
		lst := c.linkFlows[lid]
		i := slices.Index(lst, s)
		lst = slices.Delete(lst, i, i+1)
		c.linkFlows[lid] = lst
		if len(lst) == 0 {
			p, last := c.loadedPos[lid], c.loaded[len(c.loaded)-1]
			c.loaded[p] = last
			c.loadedPos[last] = p
			c.loaded = c.loaded[:len(c.loaded)-1]
			c.loadedPos[lid] = -1
		}
	}
}

// park moves slot s, stalled in RTO wait with its rate already zeroed,
// out of the per-link index and into the parked set. The caller takes it
// out of active.
func (c *soaCore) park(s int32) {
	c.linkRemove(s)
	c.listIdx[s] = -1
	c.parkPos[s] = int32(len(c.parked))
	c.parked = append(c.parked, s)
}

// unpark returns parked slot s to active at its activation-order
// position, renumbering the slots after it, and to the per-link index.
// It was last charged when it parked, at rate 0, so its charge clock
// restarts now.
func (c *soaCore) unpark(s int32) {
	c.dropParked(s)
	key := c.actSeq[s]
	lo, hi := 0, len(c.active)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.actSeq[c.active[m]] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	c.active = slices.Insert(c.active, lo, s)
	for j := lo; j < len(c.active); j++ {
		c.listIdx[c.active[j]] = int32(j)
	}
	c.linkInsert(s)
	c.last[s] = c.eng.Now()
}

// dropParked deletes slot s from the parked set.
func (c *soaCore) dropParked(s int32) {
	p, last := c.parkPos[s], c.parked[len(c.parked)-1]
	c.parked[p] = last
	c.parkPos[last] = p
	c.parked = c.parked[:len(c.parked)-1]
	c.parkPos[s] = -1
}

// withParked appends to slots, which must be in activation order, the
// parked slots keep selects, and returns the result in activation order.
// Fault handling enumerates its victims through it, so a stalled flow is
// met exactly where it would stand in active.
func (c *soaCore) withParked(slots []int32, keep func(s int32) bool) []int32 {
	n := len(slots)
	for _, s := range c.parked {
		if keep(s) {
			slots = append(slots, s)
		}
	}
	if len(slots) > n {
		slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(c.actSeq[a], c.actSeq[b]) })
	}
	return slots
}

// markDirty coalesces reallocation requests occurring at the same instant
// onto the network's single persistent dirty timer.
func (c *soaCore) markDirty() {
	if c.reallocPending {
		return
	}
	c.reallocPending = true
	_ = c.dirtyE.Schedule(c.eng.Now())
}

func (c *soaCore) dirty(uint64) {
	c.reallocPending = false
	c.reallocate()
}

// settle charges elapsed transfer progress to every active flow. In TCP
// mode the same charge feeds the per-tick acked-byte accumulator (window
// growth tracks delivered bytes exactly, independent of tick cadence) and
// the link queues integrate over the elapsed interval. A second settle at
// the same instant has nothing to charge and returns at once.
func (c *soaCore) settle() {
	now := c.eng.Now()
	if now == c.settledAt {
		return
	}
	c.settledAt = now
	// Most flows were last charged at the same instant, so the interval's
	// length in seconds is converted once per distinct interval.
	var lastDt sim.Time
	var secs float64
	for _, s := range c.active {
		if dt := now - c.last[s]; dt > 0 && c.rate[s] > 0 {
			if dt != lastDt {
				lastDt, secs = dt, dt.Seconds()
			}
			d := c.rate[s] * secs / 8
			c.remaining[s] -= d
			if c.remaining[s] < 0 {
				c.remaining[s] = 0
			}
			if c.tcp != nil {
				c.tcp.acked[s] += d
			}
		}
		c.last[s] = now
	}
	if c.tcp != nil {
		c.tcp.settleQueues(now)
	}
}

// reallocate recomputes fair rates for all active flows and reschedules
// the completion events whose rate actually changed. The rate vector is
// computed into the rates scratch buffer by the configured allocator.
// Parked flows take no part, but they still count as transferring: a
// reallocation with only parked flows left counts and advances armedTo
// as one over flows that all demand nothing would.
func (c *soaCore) reallocate() {
	c.settle()

	nf := len(c.active)
	if nf == 0 && len(c.parked) == 0 {
		if c.tcp != nil {
			c.tcp.clearOffered() // let queues drain across idle gaps
		}
		return
	}
	c.resetScratch(nf)
	c.nw.metrics.Reallocs.Inc()
	c.nw.metrics.ActiveFlowsMax.SetMax(float64(nf + len(c.parked)))

	switch {
	case c.tcp != nil:
		c.tcp.updateOffered()
		c.maxMinFill(c.tcp.demand)
	case c.cfg.Allocator == AllocEqualSplit:
		c.equalSplitRates()
	default:
		c.maxMinFill(nil)
	}

	c.applyRates()
}

// resetScratch sizes and clears the per-flow allocation buffers. A
// network reserved for its peak never grows them; one that was not grows
// them with headroom, so a rising active count reallocates rarely.
func (c *soaCore) resetScratch(nf int) {
	c.rates = growLen(c.rates, nf)
	c.frozen = growLen(c.frozen, nf)
	c.cand = growCap(c.cand, cap(c.frozen))
	clear(c.frozen)
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
func (c *soaCore) applyRates() {
	now := c.eng.Now()
	w := 0
	for i, s := range c.active {
		newRate := c.rates[i]
		if rateEqual(c.rate[s], newRate) {
			if d := c.due[s]; d <= c.horizon && d > c.armedTo {
				c.armCompletion(s)
			}
		} else {
			c.rate[s] = newRate
			c.appendSegment(s, RateSegment{Start: now, RateBps: newRate})
			c.scheduleCompletion(s, c.horizon)
		}
		if c.tcp != nil && c.tcp.tstate[s] == tcpRTOWait {
			c.park(s)
			continue
		}
		if w != i {
			c.active[w] = s
			c.listIdx[s] = int32(w)
			c.rates[w] = newRate
		}
		w++
	}
	c.active = c.active[:w]
	c.rates = c.rates[:w]
	c.armedTo = c.horizon
}

// scheduleCompletion sets the slot's due time for its current rate and
// residue, taking an engine ticket exactly where an eager re-arm would
// have taken its sequence number, and arms the completion timer when the
// due time is at or before horizon. Flows with no rate — or a rate so
// small completion would fall past the end of simulated time — get no
// due time and park with no pending event until a future reallocation
// revives them.
func (c *soaCore) scheduleCompletion(s int32, horizon sim.Time) {
	c.due[s] = noDue
	if c.rate[s] > 0 {
		now := c.eng.Now()
		if d := durationFor(c.remaining[s], c.rate[s]); d < sim.MaxTime-now {
			c.due[s], c.ticket[s] = now+d, c.eng.Ticket()
		}
	}
	if d := c.due[s]; d != noDue && d <= horizon {
		c.armCompletion(s)
	} else {
		c.cancelCompletion(s)
	}
}

// armCompletion arms slot s's persistent completion timer at its due
// time under its ticket, creating the timer on the slot's first use.
func (c *soaCore) armCompletion(s int32) {
	if !c.completeEv[s].Valid() {
		c.completeEv[s] = c.eng.NewTimer(c.finishCb, uint64(uint32(s)))
	}
	_ = c.completeEv[s].ScheduleTicket(c.due[s], c.ticket[s])
}

func (c *soaCore) cancelCompletion(s int32) {
	c.completeEv[s].Cancel()
}

// finish completes a flow: removes it from the active set, snapshots and
// recycles the slot, notifies taps and the owner callback, and triggers
// reallocation for the survivors.
func (c *soaCore) finish(s int32) {
	switch c.state[s] {
	case slotLoopback:
		c.remaining[s] = 0
	case slotActive:
		// Settle to charge the final interval.
		c.settle()
		if c.remaining[s] > 1e-3 {
			// The event fired before the flow truly drained (float
			// rounding or a stale event). Reschedule for the residue —
			// never strand a flow without a due completion.
			c.scheduleCompletion(s, c.horizon)
			return
		}
		c.remaining[s] = 0
		c.removeActive(s)
		c.markDirty()
	default:
		return // already torn down
	}
	c.completeSlot(s, false)
}

// removeActive deletes transferring slot s from the active set,
// preserving order: the slot knows its own position, so no scan — just
// close the gap and renumber the tail, which keeps listIdx monotonic
// along every per-link list — and drops it from the per-link index. A
// parked slot only leaves the parked set.
func (c *soaCore) removeActive(s int32) {
	if c.parkPos[s] >= 0 {
		c.dropParked(s)
	} else {
		i := int(c.listIdx[s])
		last := len(c.active) - 1
		copy(c.active[i:], c.active[i+1:])
		c.active = c.active[:last]
		for j := i; j < last; j++ {
			c.listIdx[c.active[j]] = int32(j)
		}
		c.linkRemove(s)
	}
	if c.tcp != nil {
		c.tcp.onRemove(s)
	}
}

// abortSlot tears a flow down before completion: it leaves the active
// set, taps observe the aborted Flow with its partial progress in
// Transferred, and OnAbort — not OnComplete — fires.
func (c *soaCore) abortSlot(s int32) {
	switch c.state[s] {
	case slotFree:
		return
	case slotActive:
		c.settle()
		c.removeActive(s)
		c.markDirty()
	}
	c.cancelCompletion(s)
	c.completeSlot(s, true)
}

// completeSlot retires a finished (or aborted) flow: counters and
// telemetry update, its final state is copied into a Flow value, the slot
// returns to the free list, and only then do taps and the owner callback
// receive the value, so they are free to start new flows that reuse the
// storage.
func (c *soaCore) completeSlot(s int32, aborted bool) {
	spec := c.spec[s]
	f := Flow{
		ID:          c.fid[s],
		Spec:        spec,
		Start:       c.start[s],
		End:         c.eng.Now(),
		Transferred: transferredOf(spec.SizeBytes, c.remaining[s]),
		Aborted:     aborted,
		Segments:    c.copySegments(s),
	}
	if aborted {
		c.nw.abortedCount++
		c.nw.metrics.FlowsAborted.Inc()
	} else {
		c.nw.completed++
		c.nw.totalBytes += float64(spec.SizeBytes)
		c.nw.metrics.FlowsCompleted.Inc()
		c.nw.metrics.FlowBytes.Observe(spec.SizeBytes)
	}
	c.freeSlot(s)
	for _, t := range c.nw.taps {
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

// setLinkState is the core half of Network.SetLinkState.
func (c *soaCore) setLinkState(lid LinkID, up bool) error {
	down := !up
	if c.topo.linkDown[lid] == down {
		return nil
	}
	c.settle()
	if err := c.topo.SetLinkDown(lid, down); err != nil {
		return err
	}
	c.nw.metrics.LinkTransitions.Inc()
	if down {
		// Snapshot as generation-checked refs, parked flows included in
		// activation order: rerouting mutates the per-link index in place,
		// and an abort callback could recycle a victim's slot for a
		// brand-new flow mid-loop.
		slots := c.withParked(slices.Clone(c.linkFlows[lid]), func(s int32) bool {
			return slices.Contains(c.path(s), lid)
		})
		victims := make([]slotRef, 0, len(slots))
		for _, s := range slots {
			victims = append(victims, c.ref(s))
		}
		for _, v := range victims {
			if c.live(v) && c.state[v.slot] == slotActive {
				c.rerouteOrAbort(v.slot)
			}
		}
	}
	c.markDirty()
	return nil
}

// rerouteOrAbort moves a transferring flow onto a fresh shortest path,
// or aborts it when the fabric no longer connects its endpoints. A parked
// flow is in no link list, so only its stored path changes.
func (c *soaCore) rerouteOrAbort(s int32) {
	p, err := c.topo.AppendPath(c.pathScratch[:0], c.spec[s].Src, c.spec[s].Dst, flowHash(c.spec[s], c.fid[s]))
	c.pathScratch = p[:0]
	if err != nil {
		c.abortSlot(s)
		return
	}
	if c.parkPos[s] >= 0 {
		c.storePath(s, p)
	} else {
		c.linkRemove(s) // uses the old path
		c.storePath(s, p)
		c.linkInsert(s)
	}
	if c.tcp != nil {
		c.tcp.onReroute(s)
	}
	c.nw.metrics.Reroutes.Inc()
}

// abortFlowsWhere is the core half of Network.AbortFlowsWhere. It asks
// pred about every transferring flow, parked ones included, in
// activation order.
func (c *soaCore) abortFlowsWhere(pred func(FlowSpec) bool) int {
	slots := c.active
	if len(c.parked) > 0 {
		slots = c.withParked(slices.Clone(c.active), func(int32) bool { return true })
	}
	victims := make([]slotRef, 0, 4)
	for _, s := range slots {
		if pred(c.spec[s]) {
			victims = append(victims, c.ref(s))
		}
	}
	for _, v := range victims {
		if c.live(v) {
			c.abortSlot(v.slot)
		}
	}
	return len(victims)
}
