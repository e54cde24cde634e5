package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
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
// of order, and it is stably sorted on its own. A k-way merge over the
// run heads keyed (StartNs, the run's ordinal in draw order) yields
// exactly the order a stable sort of the concatenated runs would, in
// O(n log k) and without moving a flow more than once.
//
// The merge samples the next source only when its heap minimum passes
// the lowest bound of the sources not yet sampled: until then no flow of
// theirs can come first, since they start no earlier and their run
// ordinals are higher. Each run's slab comes from a free list, or else
// from one slab allocated for the rest of its source, and goes back to
// the free list once the merge has emitted the run, so a stream holds
// only the flows it has sampled and not yet emitted. The run's slot in
// the run table is recycled the same way, so the table is as long as
// the most runs live at once, not the stream's run count. A background
// source (bound 0) is therefore sampled, with every source before it,
// before the first flow is emitted.
//
// A slab holds slabFlow records, not SynthFlows. A run has one job and
// one phase, so those live on the run, and a record is 32 bytes with no
// pointers: the GC never scans a slab, and a sampled flow costs 2.5×
// less memory than its SynthFlow form. The merge expands each record in
// place as it writes it into the output.

// slabFlow is one generated flow as the builder holds it; its job and
// phase are its run's. speccheck.go guards the narrowed host fields and
// TestNarrowedFieldsFit the ports.
type slabFlow struct {
	startNs, bytes   int64
	src, dst         int32
	srcPort, dstPort uint16
}

// byStart orders flows by start time; with a stable sort it is the
// schedule order.
func byStart(a, b SynthFlow) int { return cmp.Compare(a.StartNs, b.StartNs) }

func slabByStart(a, b slabFlow) int { return cmp.Compare(a.startNs, b.startNs) }

// scheduleRun is one non-empty run: its flows, and the job and phase of
// every one of them. Its slot is zeroed once the merge has emitted it.
type scheduleRun struct {
	flows []slabFlow
	job   string
	phase flows.Phase
}

// expandInto writes f, as the SynthFlow it stands for in run r, into d
// field by field, so no SynthFlow temporary is built and copied.
func (r *scheduleRun) expandInto(d *SynthFlow, f *slabFlow) {
	d.StartNs = f.startNs
	d.SrcHost = int(f.src)
	d.DstHost = int(f.dst)
	d.SrcPort = int(f.srcPort)
	d.DstPort = int(f.dstPort)
	d.Bytes = f.bytes
	d.Phase = r.phase
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
	// runs is the run table. Sampling fills the slots in freeRuns before
	// it appends, and appends the slot of every run it ends to fresh for
	// the merge to push. drawn counts the runs ended so far, which gives
	// each run its draw-order ordinal.
	runs     []scheduleRun
	freeRuns []int
	fresh    []int
	drawn    int
	// free holds the slabs of emitted runs, ready for reuse, and spare
	// the unused rest of the last slab allocated.
	free  [][]slabFlow
	spare []slabFlow
}

// newScheduleBuilder returns a builder over the sources src samples,
// whose start times are bounded by bounds, and whose schedule holds
// total flows. It takes ownership of bounds.
func newScheduleBuilder(bounds []int64, total int64, src sources) *scheduleBuilder {
	for i := len(bounds) - 2; i >= 0; i-- {
		bounds[i] = min(bounds[i], bounds[i+1])
	}
	return &scheduleBuilder{floors: bounds, src: src, total: total, latest: math.MinInt64,
		runs: make([]scheduleRun, 0, maxRunsPerJob), fresh: make([]int, 0, maxRunsPerJob)}
}

// chunkFlows is the chunk size GenerateChunks and GenerateMixChunks emit
// for a requested size (<= 0 selects genCtxStride).
func chunkFlows(chunk int) int {
	if chunk <= 0 {
		return genCtxStride
	}
	return chunk
}

// take returns a slab of n flows for a sampling loop to fill: the
// smallest free slab that holds them, or else the next n flows of spare,
// which is refilled with room for rest flows (n and those its source has
// still to take) so that a source allocates at most once.
func (b *scheduleBuilder) take(n, rest int) []slabFlow {
	if n == 0 {
		return nil
	}
	best := -1
	for i, s := range b.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(b.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		s := b.free[best][:n]
		last := len(b.free) - 1
		b.free[best], b.free[last] = b.free[last], nil
		b.free = b.free[:last]
		return s
	}
	if len(b.spare) < n {
		b.spare = make([]slabFlow, max(n, rest))
	}
	s := b.spare[:n:n]
	b.spare = b.spare[n:]
	return s
}

// endRun closes run, a slab from take filled with job's flows of phase.
// Sampling loops produce sorted runs, so the check is the whole cost for
// them; any run it rejects is stably sorted in place, so the merged
// order never depends on that invariant.
func (b *scheduleBuilder) endRun(run []slabFlow, job string, phase flows.Phase) {
	if len(run) == 0 {
		return
	}
	if !slices.IsSortedFunc(run, slabByStart) {
		slices.SortStableFunc(run, slabByStart)
	}
	b.latest = max(b.latest, run[len(run)-1].startNs)
	r := scheduleRun{flows: run, job: job, phase: phase}
	slot := len(b.runs)
	if n := len(b.freeRuns); n > 0 {
		slot = b.freeRuns[n-1]
		b.freeRuns = b.freeRuns[:n-1]
		b.runs[slot] = r
	} else {
		b.runs = append(b.runs, r)
	}
	b.fresh = append(b.fresh, slot)
	b.drawn++
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

// runHead is one run's cursor in the merge heap: its slot in the run
// table and its draw-order ordinal, the index of its next flow and that
// flow's start time.
type runHead struct {
	key  int64
	ord  int
	run  int
	next int
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
	ord := b.drawn
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
		b.free, b.spare, b.freeRuns = nil, nil, nil
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
			c := min(len(r.flows)-h.next, len(dst)-n)
			for i := range c {
				r.expandInto(&dst[n+i], &r.flows[h.next+i])
			}
			n += c
			if h.next += c; h.next == len(r.flows) {
				m.done(h.run)
				m.heap = m.heap[:0]
			}
			break
		}
		r.expandInto(&dst[n], &r.flows[h.next])
		n++
		if h.next++; h.next < len(r.flows) {
			h.key = r.flows[h.next].startNs
		} else {
			m.done(h.run)
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	return n, nil
}

// done drops the emitted run in slot, handing its slab and its slot back
// for reuse while sources remain to be sampled.
func (m *runMerge) done(slot int) {
	b := m.b
	if m.sampled < len(b.floors) {
		b.free = append(b.free, b.runs[slot].flows[:0])
		b.freeRuns = append(b.freeRuns, slot)
	}
	b.runs[slot] = scheduleRun{}
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
