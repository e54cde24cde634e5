package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"keddah/internal/flows"
)

// A schedule is built as time-ordered runs. Every (job, phase) sampling
// loop emits nondecreasing start times, so each loop is appended to one
// slab as a run that is already sorted; only the background heartbeat
// run draws its start times out of order, and it is stably sorted on its
// own. A k-way merge over the run heads keyed (StartNs, run index) then
// yields exactly the order a stable sort of the concatenated runs would,
// in O(n log k) and without moving a flow more than once.
//
// The slab holds slabFlow records, not SynthFlows. A run has one job and
// one phase, so those live on the run, and a record is 32 bytes with no
// pointers: the GC never scans the slab, and a schedule costs 2.5× less
// memory than its SynthFlow form. The merge expands each record in place
// as it writes it into the output.

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

// scheduleRun is one non-empty run: the slab offset it starts at (it
// ends where the next one starts) and the job and phase of its flows.
type scheduleRun struct {
	start int
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

// scheduleBuilder accumulates a schedule's runs in one slab.
type scheduleBuilder struct {
	flows []slabFlow
	runs  []scheduleRun
}

// newScheduleBuilder returns a builder whose slab holds n flows without
// growing.
func newScheduleBuilder(n int) *scheduleBuilder {
	return &scheduleBuilder{flows: make([]slabFlow, 0, n)}
}

// chunkFlows is the chunk size GenerateChunks and GenerateMixChunks emit
// for a requested size (<= 0 selects genCtxStride).
func chunkFlows(chunk int) int {
	if chunk <= 0 {
		return genCtxStride
	}
	return chunk
}

// endRun closes the run of flows appended since offset start, all of
// them job's flows of phase. Sampling loops produce sorted runs, so the
// check is the whole cost for them; any run it rejects is stably sorted
// in place, so the merged order never depends on that invariant.
func (b *scheduleBuilder) endRun(start int, job string, phase flows.Phase) {
	run := b.flows[start:]
	if len(run) == 0 {
		return
	}
	if !slices.IsSortedFunc(run, slabByStart) {
		slices.SortStableFunc(run, slabByStart)
	}
	b.runs = append(b.runs, scheduleRun{start: start, job: job, phase: phase})
}

// maxStartNs is the latest start time in the builder (math.MinInt64
// when it is empty); each run's maximum is its last flow.
func (b *scheduleBuilder) maxStartNs() int64 {
	latest := int64(math.MinInt64)
	for i := range b.runs {
		latest = max(latest, b.flows[b.runEnd(i)-1].startNs)
	}
	return latest
}

// runEnd is the slab offset run i ends at.
func (b *scheduleBuilder) runEnd(i int) int {
	if i+1 < len(b.runs) {
		return b.runs[i+1].start
	}
	return len(b.flows)
}

// collect returns the merged schedule in one exact-size slice, or nil
// when the schedule is empty.
func (b *scheduleBuilder) collect() []SynthFlow {
	if len(b.flows) == 0 {
		return nil
	}
	out := make([]SynthFlow, len(b.flows))
	m := b.merge()
	m.fill(out)
	return out
}

// stream feeds the merged schedule to emit in slices of at most
// chunkFlows(chunk) flows, merging straight into one reused chunk buffer
// and polling ctx before each emit.
func (b *scheduleBuilder) stream(ctx context.Context, chunk int, emit func([]SynthFlow) error) error {
	buf := make([]SynthFlow, min(chunkFlows(chunk), len(b.flows)))
	m := b.merge()
	for {
		n := m.fill(buf)
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

// runHead is one run's cursor in the merge heap: the slab offset of its
// next flow, that flow's start time, and where the run ends.
type runHead struct {
	key       int64
	run       int
	next, end int
}

// before is the merge order: start time, then run index, which is the
// tie-break a stable sort of the concatenated runs applies.
func (h runHead) before(o runHead) bool {
	return h.key < o.key || h.key == o.key && h.run < o.run
}

// runMerge is a k-way merge over a builder's runs.
type runMerge struct {
	flows []slabFlow
	runs  []scheduleRun
	heap  []runHead
}

func (b *scheduleBuilder) merge() *runMerge {
	m := &runMerge{flows: b.flows, runs: b.runs, heap: make([]runHead, len(b.runs))}
	for i, r := range b.runs {
		m.heap[i] = runHead{key: b.flows[r.start].startNs, run: i, next: r.start, end: b.runEnd(i)}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// fill expands the next len(dst) flows in merge order into dst and
// returns how many it wrote (fewer only once the merge is exhausted).
func (m *runMerge) fill(dst []SynthFlow) int {
	n := 0
	for n < len(dst) && len(m.heap) > 0 {
		h := &m.heap[0]
		r := &m.runs[h.run]
		if len(m.heap) == 1 {
			// One run left: the rest of it is in order already.
			c := min(h.end-h.next, len(dst)-n)
			for i := range c {
				r.expandInto(&dst[n+i], &m.flows[h.next+i])
			}
			n += c
			if h.next += c; h.next == h.end {
				m.heap = m.heap[:0]
			}
			break
		}
		r.expandInto(&dst[n], &m.flows[h.next])
		n++
		if h.next++; h.next < h.end {
			h.key = m.flows[h.next].startNs
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	return n
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
