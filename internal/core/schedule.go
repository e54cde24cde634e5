package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"keddah/internal/flows"
)

// A schedule is an ordered list of sources in RNG draw order: each job
// of a GenSpec, each arrival of a MixSpec, then the background. Every
// source has a lower bound on its start times that is known before it is
// sampled (its job's start, its arrival time, or 0 for the background).
//
// Sampling a source appends its time-ordered runs. Every (job, phase)
// sampling loop emits nondecreasing start times, so its run is sorted
// already; only the background heartbeat run draws its start times out
// of order. It is cut into its slabs, each stably sorted on its own and
// ended as a run of its own with the next ordinal, so no second copy of
// it is made. A k-way merge over the run heads keyed (StartNs, the run's
// ordinal in draw order) yields exactly the order a stable sort of the
// concatenated runs would, in O(n log k) and without moving a flow more
// than once.
//
// The merge samples the next source only when its heap minimum passes
// the lowest bound of the sources not yet sampled: until then no flow of
// theirs can come first, since they start no earlier and their run
// ordinals are higher. A background source (bound 0) is therefore
// sampled, with every source before it, before the first flow is
// emitted.
//
// A run announces its length before its first flow, and its flows live
// in slabs: chunks of chunkLen flows while at least that many are still
// to come, then one slab for the rest, its length rounded up to a power
// of two, so a run shorter than a chunk costs at most twice its own
// flows, not a chunk. The merge hands each slab back to the free list of
// its size class, and its slot in the run table back too, the moment its
// cursor passes the slab's last flow. A stream therefore holds the flows
// it has sampled and not yet emitted, plus the emitted part and the
// unused tail of each live slab, and the table is as long as the most
// slabs live at once, not the stream's run count. A size class's free
// list never holds more slabs than were live of that class at once.
//
// A slab holds slabFlow records, not SynthFlows. A run has one job and
// one phase, whose rule puts its well-known port on one side, so those
// live on the run, and a record is 24 bytes with no pointers: the GC
// never scans a slab, and a sampled flow costs 3.3× less memory than its
// SynthFlow form. The merge expands each record in place as it writes it
// into the output.

// slabFlow is one generated flow as the builder holds it; its job, phase
// and well-known port are its run's. packed holds src+1 and dst+1 in
// hostBits bits each above the 16-bit ephemeral port, so the master (-1)
// packs as 0; speccheck.go guards hostBits against maxSpecWorkers.
type slabFlow struct {
	startNs, bytes int64
	packed         uint64
}

const (
	portBits = 16
	hostBits = 21
	hostMask = 1<<hostBits - 1
)

// packFlow is the record of a flow from src to dst whose ephemeral port
// is eph.
func packFlow(startNs, bytes int64, src, dst, eph int) slabFlow {
	return slabFlow{startNs: startNs, bytes: bytes,
		packed: uint64(src+1)<<(portBits+hostBits) | uint64(dst+1)<<portBits | uint64(eph)}
}

func (f *slabFlow) src() int { return int(f.packed>>(portBits+hostBits)) - 1 }
func (f *slabFlow) dst() int { return int(f.packed>>portBits&hostMask) - 1 }
func (f *slabFlow) eph() int { return int(f.packed & (1<<portBits - 1)) }

// chunkLen is the flows a full chunk holds: 6,120 bytes of records, in
// the allocator's 6 KiB size class. It is below 256, so a cursor into a
// slab fits a uint8.
const chunkLen = 255

// runPhase is what a run's phase index stands for: the phase of
// flows.AllPhases at that index and the ports its rule places.
type runPhase struct {
	phase flows.Phase
	portSide
}

// runPhases indexes runPhase by a run's phase index.
var runPhases = func() []runPhase {
	rp := make([]runPhase, len(flows.AllPhases))
	for k, ph := range flows.AllPhases {
		rp[k] = runPhase{phase: ph, portSide: phaseRules[ph].portSide}
	}
	return rp
}()

// phaseIndex is ph's index in flows.AllPhases, which a run keeps.
func phaseIndex(ph flows.Phase) int { return slices.Index(flows.AllPhases, ph) }

// byStart orders flows by start time; with a stable sort it is the
// schedule order.
func byStart(a, b SynthFlow) int { return cmp.Compare(a.StartNs, b.StartNs) }

func slabByStart(a, b slabFlow) int { return cmp.Compare(a.startNs, b.startNs) }

// scheduleRun is one slab of a run not yet emitted: its flows, the index
// at of the next one to emit, the slot of the run's next slab (plus one;
// 0 when this is the last), and the job and phase index of every one of
// them. It is 48 bytes, which a short run costs the table on top of its
// records. Its slot is zeroed once the merge has emitted it.
type scheduleRun struct {
	flows []slabFlow
	job   string
	next  int32
	at    uint8
	phase uint8
}

// expandInto writes f, as the SynthFlow it stands for in run r, into d
// field by field, so no SynthFlow temporary is built and copied.
func (r *scheduleRun) expandInto(d *SynthFlow, f *slabFlow) {
	rp := &runPhases[r.phase]
	d.StartNs = f.startNs
	d.SrcHost = f.src()
	d.DstHost = f.dst()
	d.SrcPort, d.DstPort = rp.ports(f.eph())
	d.Bytes = f.bytes
	d.Phase = rp.phase
	d.Job = r.job
}

// sources samples a schedule's sources: sample appends source i's runs
// to b. Sources are sampled once each and in order, so an implementation
// may carry state from one source to the next.
type sources interface {
	sample(b *scheduleBuilder, i int) error
}

// scheduleBuilder is a schedule's source list and the runs sampled from
// it so far.
type scheduleBuilder struct {
	// floors[i] is the lowest start time any flow of source i or of a
	// later source can have; newScheduleBuilder takes each source's own
	// bound and keeps the minimum over its suffix.
	floors []int64
	src    sources
	// total is the schedule length. It is exact once every source whose
	// count depends on earlier draws is sampled; only a mix's background
	// has one, and with bound 0 it is sampled before the first flow.
	total int64
	// latest is the latest start time sampled (math.MinInt64 before any).
	latest int64
	// runs is the run table, one slot per slab. Storing a slab fills the
	// slots in freeRuns before it appends; ending a run lists the slot of
	// each slab the merge pushes in fresh. drawn counts the runs pushed
	// so far, which gives each its draw-order ordinal.
	runs     []scheduleRun
	freeRuns []int32
	fresh    []int32
	drawn    int
	// slabs are the filled slabs of the run being sampled, and tail the
	// one it is filling, with room for room more of its flows; want is
	// the flows it announced that no slab has room for yet.
	slabs      [][]slabFlow
	tail       []slabFlow
	room, want int
	// free holds the slabs the merge has emitted, by size class, ready
	// for reuse.
	free [slabClasses][][]slabFlow
}

// newScheduleBuilder returns a builder over the sources src samples,
// whose start times are bounded by bounds, and whose schedule holds
// total flows. It takes ownership of bounds.
func newScheduleBuilder(bounds []int64, total int64, src sources) *scheduleBuilder {
	for i := len(bounds) - 2; i >= 0; i-- {
		bounds[i] = min(bounds[i], bounds[i+1])
	}
	return &scheduleBuilder{floors: bounds, src: src, total: total, latest: math.MinInt64,
		runs: make([]scheduleRun, 0, maxRunsPerJob), fresh: make([]int32, 0, maxRunsPerJob)}
}

// chunkFlows is the chunk size GenerateChunks and GenerateMixChunks emit
// for a requested size (<= 0 selects genCtxStride).
func chunkFlows(chunk int) int {
	if chunk <= 0 {
		return genCtxStride
	}
	return chunk
}

// beginRun starts a run of n flows: exactly n adds must follow before
// endRun.
func (b *scheduleBuilder) beginRun(n int) { b.want = n }

// add appends f to the run being sampled.
func (b *scheduleBuilder) add(f slabFlow) {
	if b.room == 0 {
		b.grow()
	}
	b.tail = append(b.tail, f)
	b.room--
}

// grow files the full tail slab and starts the next, for a chunk's worth
// of the announced flows still to come or for all of them if fewer: one
// of the free list's slabs of that size class, or a new one.
func (b *scheduleBuilder) grow() {
	if b.tail != nil {
		b.slabs = append(b.slabs, b.tail)
	}
	n := min(b.want, chunkLen)
	if n <= 0 {
		panic("core: a run outgrew the length it began with")
	}
	b.want -= n
	b.room = n
	k := slabClass(n)
	if l := b.free[k]; len(l) > 0 {
		last := len(l) - 1
		b.tail, l[last] = l[last], nil
		b.free[k] = l[:last]
		return
	}
	b.tail = make([]slabFlow, 0, min(1<<k, chunkLen))
}

// slabClasses is the number of slab capacities: 1, 2, 4, …, 128 flows
// and a whole chunk (TestSlabFlowPacking checks that chunkLen is the
// last).
const slabClasses = 9

// slabClass is the size class of a slab for n flows (0 < n <= chunkLen):
// n rounded up to a power of two, or a chunk above 128. A slab's
// capacity, which is its class's, gives the class back.
func slabClass(n int) int { return bits.Len(uint(n - 1)) }

// endRun closes the run being sampled: job's flows of the phase at
// flows.AllPhases[phase]. Sampling loops produce sorted runs, so the
// check is the whole cost for them, and their slabs are chained behind
// one merge entry. A run it rejects, which only the background is, has
// each slab stably sorted and ended as a run of its own: their ordinals
// follow draw order, so ties still break as a stable sort of the whole
// run would, and the merged order never depends on the invariant.
func (b *scheduleBuilder) endRun(job string, phase int) {
	if b.want != 0 || b.room != 0 {
		panic("core: a run ended short of the length it began with")
	}
	if b.tail != nil {
		b.slabs = append(b.slabs, b.tail)
	}
	slabs := b.slabs
	b.slabs, b.tail = b.slabs[:0], nil
	if len(slabs) == 0 {
		return
	}
	sorted := true
	for i, s := range slabs {
		if i > 0 && s[0].startNs < slabs[i-1][len(slabs[i-1])-1].startNs || !slices.IsSortedFunc(s, slabByStart) {
			sorted = false
			break
		}
	}
	prev := -1
	for _, s := range slabs {
		if !sorted {
			slices.SortStableFunc(s, slabByStart)
		}
		b.latest = max(b.latest, s[len(s)-1].startNs)
		slot := b.store(scheduleRun{flows: s, job: job, phase: uint8(phase)})
		if sorted && prev >= 0 {
			b.runs[prev].next = int32(slot) + 1
		} else {
			b.fresh = append(b.fresh, int32(slot))
			b.drawn++
		}
		prev = slot
	}
	clear(slabs)
}

// store puts r in a free slot of the run table, or a new one, and
// returns the slot.
func (b *scheduleBuilder) store(r scheduleRun) int {
	if n := len(b.freeRuns); n > 0 {
		slot := int(b.freeRuns[n-1])
		b.freeRuns = b.freeRuns[:n-1]
		b.runs[slot] = r
		return slot
	}
	b.runs = append(b.runs, r)
	return len(b.runs) - 1
}

// collect returns the merged schedule in one exact-size slice, or nil
// when the schedule is empty.
func (b *scheduleBuilder) collect() ([]SynthFlow, error) {
	m := runMerge{b: b}
	if err := m.start(); err != nil || b.total == 0 {
		return nil, err
	}
	out := make([]SynthFlow, b.total)
	if _, err := m.fill(out); err != nil {
		return nil, err
	}
	return out, nil
}

// stream feeds the merged schedule to emit in slices of at most
// chunkFlows(chunk) flows, merging straight into one reused chunk buffer
// and polling ctx before each emit.
func (b *scheduleBuilder) stream(ctx context.Context, chunk int, emit func([]SynthFlow) error) error {
	m := runMerge{b: b}
	if err := m.start(); err != nil {
		return err
	}
	buf := make([]SynthFlow, min(int64(chunkFlows(chunk)), b.total))
	for {
		n, err := m.fill(buf)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: generate: %w", err)
		}
		if err := emit(buf[:n]); err != nil {
			return err
		}
	}
}

// runHead is one run's entry in the merge heap: its next flow's start
// time, its draw-order ordinal and the slot of its current slab.
type runHead struct {
	key int64
	ord int32
	run int32
}

// before is the merge order: start time, then draw-order ordinal, which
// is the tie-break a stable sort of the concatenated runs applies.
func (h runHead) before(o runHead) bool {
	return h.key < o.key || h.key == o.key && h.ord < o.ord
}

// runMerge is a k-way merge over a builder's runs that samples sources
// as it reaches them.
type runMerge struct {
	b    *scheduleBuilder
	heap []runHead
	// sampled counts the sources sampled, and floor is the floor of the
	// next one.
	sampled int
	floor   int64
}

// start begins the merge of m.b's sources, sampling every source that
// precedes its first flow.
func (m *runMerge) start() error {
	m.heap = make([]runHead, 0, maxRunsPerJob)
	for m.due() {
		if err := m.sampleNext(); err != nil {
			return err
		}
	}
	return nil
}

// due reports whether the next source must be sampled before the next
// flow is known: a source is left and the heap holds no flow at or
// below its floor.
func (m *runMerge) due() bool {
	return m.sampled < len(m.b.floors) && (len(m.heap) == 0 || m.heap[0].key > m.floor)
}

// sampleNext samples the next source and pushes its runs.
func (m *runMerge) sampleNext() error {
	b := m.b
	ord := int32(b.drawn)
	b.fresh = b.fresh[:0]
	if err := b.src.sample(b, m.sampled); err != nil {
		return err
	}
	for _, slot := range b.fresh {
		key := b.runs[slot].flows[0].startNs
		if key < b.floors[m.sampled] {
			panic(fmt.Sprintf("core: source %d starts at %d ns, below its floor %d ns", m.sampled, key, b.floors[m.sampled]))
		}
		m.heap = append(m.heap, runHead{key: key, ord: ord, run: slot})
		m.up(len(m.heap) - 1)
		ord++
	}
	if m.sampled++; m.sampled < len(b.floors) {
		m.floor = b.floors[m.sampled]
	} else {
		// Nothing is left to take a slab or a slot.
		b.free, b.freeRuns = [slabClasses][][]slabFlow{}, nil
	}
	return nil
}

// fill expands the next len(dst) flows in merge order into dst and
// returns how many it wrote (fewer only once the merge is exhausted).
func (m *runMerge) fill(dst []SynthFlow) (int, error) {
	n := 0
	for n < len(dst) {
		if m.due() {
			if err := m.sampleNext(); err != nil {
				return n, err
			}
			continue
		}
		if len(m.heap) == 0 {
			break
		}
		h := &m.heap[0]
		r := &m.b.runs[h.run]
		if len(m.heap) == 1 && m.sampled == len(m.b.floors) {
			// One run left: the rest of it is in order already.
			for n < len(dst) {
				fl := r.flows[r.at:min(len(r.flows), int(r.at)+len(dst)-n)]
				for i := range fl {
					r.expandInto(&dst[n+i], &fl[i])
				}
				n += len(fl)
				if r.at += uint8(len(fl)); int(r.at) == len(r.flows) {
					if !m.pass(h) {
						m.heap = m.heap[:0]
						break
					}
					r = &m.b.runs[h.run]
				}
			}
			break
		}
		r.expandInto(&dst[n], &r.flows[r.at])
		n++
		if r.at++; int(r.at) < len(r.flows) {
			h.key = r.flows[r.at].startNs
		} else if m.pass(h) {
			h.key = m.b.runs[h.run].flows[0].startNs
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	return n, nil
}

// pass drops the emitted slab in h's slot and moves h on to its run's
// next slab, reporting whether there is one. While sources remain to be
// sampled, the slab goes back to the free list and the slot to the free
// slots.
func (m *runMerge) pass(h *runHead) bool {
	b := m.b
	r := &b.runs[h.run]
	next := r.next
	if m.sampled < len(b.floors) {
		k := slabClass(cap(r.flows))
		b.free[k] = append(b.free[k], r.flows[:0])
		b.freeRuns = append(b.freeRuns, h.run)
	}
	*r = scheduleRun{}
	h.run = next - 1
	return next != 0
}

// up restores the heap order above i.
func (m *runMerge) up(i int) {
	h := m.heap
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down restores the heap order below i.
func (m *runMerge) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
