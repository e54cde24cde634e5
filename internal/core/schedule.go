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
// of order. A k-way merge over the run heads keyed (StartNs, the run's
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
// A sampling loop writes its run's flows into one reused staging buffer
// of chunkLen slabFlow records. When the buffer fills, or the run ends,
// the builder packs it into a slab: a pointer-free []uint64 that stores
// its first start time once and then, per flow, the start delta from the
// flow before (as the record before's last field), the size, src+1,
// dst+1 and the ephemeral port, each field at the smallest bit width
// that holds the slab's own largest value. A run's job, phase and
// well-known port live on the run, so a flow costs about 10 bytes where
// its SynthFlow form costs 80, and the GC never scans a slab. The order
// check runs on the staging buffer while it is hot: a buffer found out
// of order is stably sorted there first, and its run marked unsorted.
//
// A sorted run's slabs are chained behind one merge entry. An unsorted
// run, which only the background is, has each slab merged as a run of
// its own with the next ordinal, so ties still break in draw order and
// no second copy of it is made. The merge decodes each slab in order,
// its heap key being the next record's start time, and hands the slab
// back to the free list of its size class, and its slot in the run table
// back too, the moment its cursor passes the slab's last flow. A stream
// therefore holds the flows it has sampled and not yet emitted, plus the
// emitted part and rounding of each live slab, and the table is as long
// as the most slabs live at once, not the stream's run count. A size
// class's free list never holds more slabs than were live of that class
// at once.

// slabFlow is one generated flow as a sampling loop stages it; its job,
// phase and well-known port are its run's. packed holds src+1 and dst+1
// in hostBits bits each above the 16-bit ephemeral port, so the master
// (-1) packs as 0; speccheck.go guards hostBits against maxSpecWorkers.
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

// chunkLen is the most flows a slab holds, and the staging buffer's
// length. It is below 256, so a cursor into a slab and a slab's record
// count fit a uint8.
const chunkLen = 255

// A slab is laid out as:
//
//	word 0   the first record's start time
//	word 1   the slabHead: the record count and the field widths
//	records  from bit 128, each the size, then src+1, dst+1 and the
//	         ephemeral port packed as one hosts field (port lowest),
//	         then delta, the next record's start minus this one's
//	         (absent from the last record); low bits first
//	pad      one word, so a field read may always load the word after
//	         the one it starts in
//
// Every field is at least 1 bit wide, so a width w in [1, 64] gives its
// mask as ^0 >> (64-w), one shift. A record takes the same number of
// bits throughout its slab, so the cursor finds record i at bit
// 128 + i·(its width) without an index.
const (
	slabHeadWords = 2
	slabHeadBits  = slabHeadWords * 64
	// maxSlabWords is the longest slab: a full chunk whose every field
	// is as wide as it can be, 64 bits for the size and the delta and 64
	// for the hosts field.
	maxSlabWords = slabHeadWords + (chunkLen*192-64)/64 + 2
)

// slabHead is a slab's second word: one byte each for the record count
// and, in the order of the head* constants, the widths a record's
// decoding needs.
type slabHead uint64

const (
	headCount  = iota // records in the slab
	headBytes         // width of the size
	headHosts         // width of the hosts field
	headRecord        // width of a whole record
	headSrcAt         // bit of src+1 in the hosts field: dst's width plus the port's
	headDst           // width of dst+1
	headEph           // width of the ephemeral port
	headDelta         // width of the start delta
)

func (h slabHead) get(k int) uint { return uint(h >> (8 * k) & 0xff) }

// newSlabHead is the head of a slab of n records whose fields are at
// most these many bits wide.
func newSlabHead(n int, bytes, src, dst, eph, delta uint) slabHead {
	hosts := src + dst + eph
	return slabHead(uint64(n)<<(8*headCount) | uint64(bytes)<<(8*headBytes) | uint64(hosts)<<(8*headHosts) |
		uint64(bytes+hosts+delta)<<(8*headRecord) | uint64(dst+eph)<<(8*headSrcAt) |
		uint64(dst)<<(8*headDst) | uint64(eph)<<(8*headEph) | uint64(delta)<<(8*headDelta))
}

// words is the length of the slab h heads: the head, the records' bits
// (the last without its delta), and the word after the one the last
// field starts in.
func (h slabHead) words() int {
	return slabHeadWords + int(h.get(headCount)*h.get(headRecord)-h.get(headDelta))/64 + 2
}

// width is the bits a field needs to hold v: at least 1.
func width(v uint64) uint { return uint(bits.Len64(v | 1)) }

// lowBits is a mask of the low w bits, 0 < w <= 64.
func lowBits(w uint) uint64 { return ^uint64(0) >> ((64 - w) & 63) }

// bitsAt reads the w-bit field at bit off of s, which must have a word
// after the one the field starts in.
func bitsAt(s []uint64, off, w uint) uint64 {
	i, sh := off/64, off%64
	// The second word shifts by 64-sh in two steps, so that sh = 0
	// shifts it out whole without a shift count of 64.
	return (s[i]>>sh | s[i+1]<<1<<(63-sh)) & lowBits(w)
}

// putBits appends v, which must fit w bits (0 < w <= 64), to the
// fields being written to s, low bits first: acc holds the n bits not
// yet in a full word, and s[i] is the word they go to. It stores that
// word on every call and moves on without a branch, as fields cross word
// boundaries in no pattern a branch predictor could learn, and returns
// the new i, acc and n.
func putBits(s []uint64, i int, acc uint64, n uint, v uint64, w uint) (int, uint64, uint) {
	acc |= v << (n & 63)
	s[i] = acc
	n += w
	full := uint64(n >> 6)
	n &= 63
	// A filled word leaves v's bits that did not fit, v >> (w-n), in
	// two steps for the same reason as in bitsAt.
	rest := v >> 1 >> ((w - n - 1) & 63)
	return i + int(full), acc&(full-1) | rest&-full, n
}

// slabClasses is the number of slab capacities: every length up to 32
// words, then 16 steps per octave, so a slab's capacity exceeds its
// length by under 1/16 and the allocator's own size classes, a few times
// coarser, do most of the rounding. The last class holds maxSlabWords
// (TestSlabFlowPacking checks it).
const slabClasses = 104

// slabClass is the size class of a slab of n words (0 < n <=
// maxSlabWords). A slab's capacity, which is its class's, gives the
// class back.
func slabClass(n int) int {
	sh := max(bits.Len(uint(n-1))-5, 0)
	return 16*sh + (n-1)>>sh
}

// slabCap is the capacity of size class k, in words.
func slabCap(k int) int {
	sh := max(k/16-1, 0)
	return (k - 16*sh + 1) << sh
}

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

// scheduleRun is one slab of a run not yet emitted: the slab, the index
// at of the next record to emit, the slot of the run's next slab (plus
// one; 0 when this is the last), and the job and phase index of every
// one of its flows. It is 48 bytes, which a short run costs the table on
// top of its slab. Its slot is zeroed once the merge has emitted it.
type scheduleRun struct {
	slab  []uint64
	job   string
	next  int32
	at    uint8
	phase uint8
}

// emit writes the record at r's cursor, which starts at start, into d
// field by field, so no SynthFlow temporary is built and copied, and
// moves the cursor past it. It returns the next record's start time, or
// false when that was the slab's last record.
func (r *scheduleRun) emit(d *SynthFlow, start int64) (int64, bool) {
	s := r.slab
	h := slabHead(s[1])
	wBytes, wHosts, eph := h.get(headBytes), h.get(headHosts), h.get(headEph)
	off := slabHeadBits + uint(r.at)*h.get(headRecord)
	var size, hosts uint64
	if wBytes+wHosts <= 64 {
		// Most slabs: one read for both fields.
		v := bitsAt(s, off, wBytes+wHosts)
		size, hosts = v&lowBits(wBytes), v>>(wBytes&63)
	} else {
		size, hosts = bitsAt(s, off, wBytes), bitsAt(s, off+wBytes, wHosts)
	}
	rp := &runPhases[r.phase]
	d.StartNs = start
	d.SrcHost = int(hosts>>(h.get(headSrcAt)&63)) - 1
	d.DstHost = int(hosts>>(eph&63)&lowBits(h.get(headDst))) - 1
	d.SrcPort, d.DstPort = rp.ports(int(hosts & lowBits(eph)))
	d.Bytes = int64(size)
	d.Phase = rp.phase
	d.Job = r.job
	if r.at++; uint(r.at) == h.get(headCount) {
		return 0, false
	}
	return int64(uint64(start) + bitsAt(s, off+wBytes+wHosts, h.get(headDelta))), true
}

// first is the start time of r's first record.
func (r *scheduleRun) first() int64 { return int64(r.slab[0]) }

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
	// stage holds the flows of the run being sampled that no slab holds
	// yet, and slabs the slabs packed from it so far; lastNs is the last
	// start time packed, and unsorted is set once the run is found out of
	// order.
	stage    []slabFlow
	slabs    [][]uint64
	lastNs   int64
	unsorted bool
	// free holds the slabs the merge has emitted, by size class, ready
	// for reuse.
	free [slabClasses][][]uint64
}

// newScheduleBuilder returns a builder over the sources src samples,
// whose start times are bounded by bounds, and whose schedule holds
// total flows. It takes ownership of bounds.
func newScheduleBuilder(bounds []int64, total int64, src sources) *scheduleBuilder {
	for i := len(bounds) - 2; i >= 0; i-- {
		bounds[i] = min(bounds[i], bounds[i+1])
	}
	return &scheduleBuilder{floors: bounds, src: src, total: total, latest: math.MinInt64,
		runs: make([]scheduleRun, 0, maxRunsPerJob), fresh: make([]int32, 0, maxRunsPerJob),
		stage: make([]slabFlow, 0, chunkLen)}
}

// chunkFlows is the chunk size GenerateChunks and GenerateMixChunks emit
// for a requested size (<= 0 selects genCtxStride).
func chunkFlows(chunk int) int {
	if chunk <= 0 {
		return genCtxStride
	}
	return chunk
}

// add appends f to the run being sampled.
func (b *scheduleBuilder) add(f slabFlow) {
	b.stage = append(b.stage, f)
	if len(b.stage) == chunkLen {
		b.pack()
	}
}

// pack files the staged flows as the run's next slab. Flows out of order
// among themselves, or starting before the run's last packed flow, mark
// the run unsorted; the former are stably sorted first.
func (b *scheduleBuilder) pack() {
	s := b.stage
	b.stage = s[:0]
	if len(b.slabs) > 0 && s[0].startNs < b.lastNs {
		b.unsorted = true
	}
	var deltas, sizes, hosts uint64
	sorted := true
	for i := range s {
		f := &s[i]
		if i > 0 {
			sorted = sorted && f.startNs >= s[i-1].startNs
			deltas |= uint64(f.startNs) - uint64(s[i-1].startNs)
		}
		sizes |= uint64(f.bytes)
		hosts |= f.packed
	}
	if !sorted {
		b.unsorted = true
		slices.SortStableFunc(s, slabByStart)
		deltas = 0
		for i := 1; i < len(s); i++ {
			deltas |= uint64(s[i].startNs) - uint64(s[i-1].startNs)
		}
	}
	wBytes, wDst, wEph, wDelta := width(sizes), width(hosts>>portBits&hostMask), width(hosts&(1<<portBits-1)), width(deltas)
	h := newSlabHead(len(s), wBytes, width(hosts>>(portBits+hostBits)), wDst, wEph, wDelta)
	n := h.words()
	k := slabClass(n)
	var slab []uint64
	if l := b.free[k]; len(l) > 0 {
		last := len(l) - 1
		slab, l[last] = l[last][:n], nil
		b.free[k] = l[:last]
	} else {
		slab = make([]uint64, n, slabCap(k))
	}
	slab[0], slab[1] = uint64(s[0].startNs), uint64(h)
	out, j, acc, used := slab[slabHeadWords:], 0, uint64(0), uint(0)
	wHosts, srcAt := h.get(headHosts), h.get(headSrcAt)
	for i := range s {
		f := &s[i]
		hosts := f.packed>>(portBits+hostBits)<<(srcAt&63) | f.packed>>portBits&hostMask<<(wEph&63) | f.packed&(1<<portBits-1)
		if wBytes+wHosts <= 64 {
			j, acc, used = putBits(out, j, acc, used, uint64(f.bytes)|hosts<<(wBytes&63), wBytes+wHosts)
		} else {
			j, acc, used = putBits(out, j, acc, used, uint64(f.bytes), wBytes)
			j, acc, used = putBits(out, j, acc, used, hosts, wHosts)
		}
		if i+1 < len(s) {
			j, acc, used = putBits(out, j, acc, used, uint64(s[i+1].startNs)-uint64(f.startNs), wDelta)
		}
	}
	out[j] = acc
	b.lastNs = s[len(s)-1].startNs
	b.latest = max(b.latest, b.lastNs)
	b.slabs = append(b.slabs, slab)
}

// endRun closes the run being sampled: job's flows of the phase at
// flows.AllPhases[phase]. A sorted run's slabs are chained behind one
// merge entry. An unsorted one, which only the background is, has each
// slab (stably sorted as it was packed) ended as a run of its own: their
// ordinals follow draw order, so ties still break as a stable sort of
// the whole run would, and the merged order never depends on the
// invariant.
func (b *scheduleBuilder) endRun(job string, phase int) {
	if len(b.stage) > 0 {
		b.pack()
	}
	prev := -1
	for _, s := range b.slabs {
		slot := b.store(scheduleRun{slab: s, job: job, phase: uint8(phase)})
		if !b.unsorted && prev >= 0 {
			b.runs[prev].next = int32(slot) + 1
		} else {
			b.fresh = append(b.fresh, int32(slot))
			b.drawn++
		}
		prev = slot
	}
	clear(b.slabs)
	b.slabs, b.unsorted = b.slabs[:0], false
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
		key := b.runs[slot].first()
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
		b.free, b.freeRuns, b.stage = [slabClasses][][]uint64{}, nil, nil
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
		if len(m.heap) == 1 && m.sampled == len(m.b.floors) {
			// One run left: the rest of it is in order already.
			for n < len(dst) {
				more := m.step(&dst[n], h)
				n++
				if !more {
					m.heap = m.heap[:0]
					break
				}
			}
			break
		}
		if !m.step(&dst[n], h) {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		n++
		m.down(0)
	}
	return n, nil
}

// step writes h's next flow into d and moves h on to the flow after it,
// reporting false when h's run has none.
func (m *runMerge) step(d *SynthFlow, h *runHead) bool {
	key, more := m.b.runs[h.run].emit(d, h.key)
	if !more {
		if !m.pass(h) {
			return false
		}
		key = m.b.runs[h.run].first()
	}
	h.key = key
	return true
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
		k := slabClass(cap(r.slab))
		b.free[k] = append(b.free[k], r.slab[:0])
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
