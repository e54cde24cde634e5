package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"keddah/internal/flows"
	"keddah/internal/sim"
)

// stableOracle is the order the run merge must reproduce: the
// concatenated runs through a reflective stable sort by start time.
func stableOracle(concat []SynthFlow) []SynthFlow {
	out := slices.Clone(concat)
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// concatRuns is the builder's runs concatenated in run order, decoded
// bit by bit and expanded to SynthFlows field by field here, not through
// the merge's decoder, so the oracle shares no code with what it checks
// but the slab layout. The runs must not have been merged yet
// (sampleAll), so the table holds each run's slabs in order.
func concatRuns(b *scheduleBuilder) []SynthFlow {
	var out []SynthFlow
	for _, r := range b.runs {
		ph := flows.AllPhases[r.phase]
		for _, f := range unpackSlab(r.slab)[r.at:] {
			sf := SynthFlow{StartNs: f.startNs, SrcHost: f.src(), DstHost: f.dst(), Bytes: f.bytes, Phase: ph, Job: r.job}
			sf.SrcPort, sf.DstPort = phaseRules[ph].ports(f.eph())
			out = append(out, sf)
		}
	}
	return out
}

// unpackSlab decodes a slab one bit at a time, from the layout schedule.go
// documents, into the records it was packed from.
func unpackSlab(s []uint64) []slabFlow {
	pos := 0
	field := func(w byte) uint64 {
		var v uint64
		for j := range int(w) {
			v |= s[pos/64] >> (pos % 64) & 1 << j
			pos++
		}
		return v
	}
	h := s[1]
	n, wBytes, wHosts, srcAt, wDst, wEph, wDelta := byte(h), byte(h>>8), byte(h>>16), byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56)
	wSrc := wHosts - srcAt
	pos = 128
	out := make([]slabFlow, n)
	start := s[0]
	for i := range out {
		bytes := field(wBytes)
		eph := field(wEph)
		dst := field(wDst)
		src := field(wSrc)
		out[i] = slabFlow{startNs: int64(start), bytes: int64(bytes), packed: src<<(portBits+hostBits) | dst<<portBits | eph}
		if i+1 < len(out) {
			start += field(wDelta)
		}
	}
	return out
}

// sampleAll samples every source of b in draw order without merging,
// the way a schedule was built before the merge sampled lazily.
func sampleAll(t testing.TB, b *scheduleBuilder) {
	t.Helper()
	for i := range b.floors {
		if err := b.src.sample(b, i); err != nil {
			t.Fatal(err)
		}
	}
}

// testSource is one source of a hand-built schedule: the bound its
// flows start at or after, the start times of each of its runs, and
// whether its sizes have the top bit set, which a slab packs 64 bits
// wide.
type testSource struct {
	bound int64
	runs  [][]int64
	wide  bool
}

// size is the size of flow j of the schedule's run r, which is s's.
func (s testSource) size(r, j int) int64 {
	n := int64(100*r + j)
	if s.wide {
		n |= math.MinInt64
	}
	return n
}

// sourceSchedule returns a builder over srcs and, built independently
// of it, the concatenation of their runs in draw order. Every run has
// its own job, and the runs take the phases in turn, whose well-known
// ports alternate sides, so a flow expanded with another run's metadata
// fails.
func sourceSchedule(srcs []testSource) (*scheduleBuilder, []SynthFlow) {
	var concat []SynthFlow
	bounds := make([]int64, len(srcs))
	var total int64
	r := 0
	for i, src := range srcs {
		bounds[i] = src.bound
		for _, starts := range src.runs {
			job, phase := fmt.Sprintf("job%d", r), flows.AllPhases[r%len(flows.AllPhases)]
			for j, ns := range starts {
				sp, dp := 2000+j, int(phaseRules[phase].port)
				if phaseRules[phase].portOnSrc {
					sp, dp = dp, sp
				}
				concat = append(concat, SynthFlow{
					StartNs: ns, SrcHost: r - 1, DstHost: j, SrcPort: sp, DstPort: dp,
					Bytes: src.size(r, j), Phase: phase, Job: job,
				})
			}
			total += int64(len(starts))
			r++
		}
	}
	return newScheduleBuilder(bounds, total, &testSources{srcs: srcs}), concat
}

// testSources samples hand-built sources, numbering their runs in draw
// order as sourceSchedule does.
type testSources struct {
	srcs []testSource
	runs int
}

func (s *testSources) sample(b *scheduleBuilder, i int) error {
	for _, starts := range s.srcs[i].runs {
		r := s.runs
		for j, ns := range starts {
			b.add(packFlow(ns, s.srcs[i].size(r, j), r-1, j, 2000+j))
		}
		b.endRun(fmt.Sprintf("job%d", r), r%len(flows.AllPhases))
		s.runs++
	}
	return nil
}

// checkSourceMerge checks that srcs merge, collected and streamed in
// every chunk size, into the stable sort of their concatenated runs.
func checkSourceMerge(t testing.TB, srcs []testSource, sizes ...int) {
	t.Helper()
	b, concat := sourceSchedule(srcs)
	want := stableOracle(concat)
	sampleAll(t, b)
	if got := stableOracle(concatRuns(b)); !reflect.DeepEqual(got, want) {
		t.Fatalf("builder runs\n got %v\nwant %v", got, want)
	}
	b, _ = sourceSchedule(srcs)
	got, err := b.collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order\n got %v\nwant %v", got, want)
	}
	for _, size := range sizes {
		b, _ := sourceSchedule(srcs)
		var got []SynthFlow
		if err := b.stream(context.Background(), size, func(c []SynthFlow) error {
			got = append(got, c...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: merge order\n got %v\nwant %v", size, got, want)
		}
	}
}

// TestRunMergeMatchesStableSort drives the builder directly with tied,
// single-flow, empty and unsorted runs: the unsorted one exercises the
// safety net that sorts any run the sampling loops failed to keep in
// order. The multi-source cases tie flows across sources, put a
// source's first flow exactly on its bound, leave whole sources empty
// and end on a bound-0 source, as a background does. The last case's
// runs cross chunk boundaries, one exactly filling a chunk: sorted ones
// merge across them, and unsorted ones are cut into chunks sorted
// apart, whose ties must still break in draw order.
func TestRunMergeMatchesStableSort(t *testing.T) {
	cases := []struct {
		name string
		srcs []testSource
	}{
		{"one source", []testSource{{bound: 0, runs: [][]int64{
			{1, 1, 2, 9},
			{},
			{1, 3},
			{0},
			{5, 1, 1, 0, 9, 1}, // unsorted
			{1, 1, 1},
		}}}},
		{"staggered sources", []testSource{
			{bound: 0, runs: [][]int64{{0, 4, 8}, {2, 3, 20}}},
			{bound: 4, runs: [][]int64{{4, 4, 5}, {}, {6, 30}}}, // first flow on its bound, tied
			{bound: 8, runs: [][]int64{{8}}},
			{bound: 9, runs: [][]int64{}},
			{bound: 9, runs: [][]int64{{}, {}}},
			{bound: 25, runs: [][]int64{{30, 31}, {25, 26}}},
		}},
		{"bounds out of order", []testSource{
			{bound: 10, runs: [][]int64{{10, 12}}},
			{bound: 3, runs: [][]int64{{3, 3, 11}}},
			{bound: 11, runs: [][]int64{{11}, {40, 11, 12}}},
		}},
		{"trailing background", []testSource{
			{bound: 0, runs: [][]int64{{0, 5}}},
			{bound: 5, runs: [][]int64{{5, 9}}},
			{bound: 9, runs: [][]int64{{9, 9}}},
			{bound: 0, runs: [][]int64{{7, 0, 9, 5, 0}}},
		}},
		{"all empty", []testSource{{bound: 3}, {bound: 0, runs: [][]int64{{}}}}},
		{"runs longer than a chunk", []testSource{
			{bound: 0, runs: [][]int64{
				rampRun(0, 3*chunkLen+7, 3),
				rampRun(5, chunkLen, 1),
				scrambledRun(1, 2*chunkLen+5, 40), // unsorted
			}},
			{bound: 20, runs: [][]int64{rampRun(20, chunkLen+1, 2), {20, 25}}},
			{bound: 0, runs: [][]int64{scrambledRun(2, 4*chunkLen, 400)}}, // a background
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkSourceMerge(t, c.srcs, 1, 2, 5, 7, 100, 4096)
		})
	}
}

// rampRun is a sorted run of n start times from lo, each repeated tie
// times.
func rampRun(lo int64, n, tie int) []int64 {
	run := make([]int64, n)
	for i := range run {
		run[i] = lo + int64(i/tie)
	}
	return run
}

// scrambledRun is a run of n start times in [0, span), in an order fixed
// by seed and full of ties.
func scrambledRun(seed uint64, n int, span int64) []int64 {
	run := make([]int64, n)
	for i := range run {
		seed = seed*6364136223846793005 + 1442695040888963407
		run[i] = int64(seed>>33) % span
	}
	return run
}

// TestSlabFlowPacking: a staged record gives back the hosts and
// ephemeral port it was packed with at the extremes of each field, the
// master (-1) and the highest host a spec admits among them, without
// disturbing its start time or size; a staged record is 24 bytes and a
// run-table slot 48; and every slab length takes a size class that
// holds it, exactly up to 32 words and with under 1/16 to spare above.
//
// Then it packs runs whose fields reach the extremes of their widths,
// up to 64 bits, and decodes them through the merge's cursor and bit by
// bit: both must give back every flow, in order within each slab, with
// an out-of-order run cut into slabs each stably sorted. Widths of zero
// (equal start times, the master on every side, port 0) round-trip too,
// and the longest slab is no longer than maxSlabWords.
func TestSlabFlowPacking(t *testing.T) {
	hosts := []int{-1, 0, maxSpecWorkers - 1}
	for _, src := range hosts {
		for _, dst := range hosts {
			for _, eph := range []int{0, flows.EphemeralPortLo, math.MaxUint16} {
				f := packFlow(-7, math.MaxInt64, src, dst, eph)
				if f.src() != src || f.dst() != dst || f.eph() != eph || f.startNs != -7 || f.bytes != math.MaxInt64 {
					t.Errorf("packFlow(src %d, dst %d, eph %d) reads back src %d, dst %d, eph %d, start %d, bytes %d",
						src, dst, eph, f.src(), f.dst(), f.eph(), f.startNs, f.bytes)
				}
			}
		}
	}
	if n := unsafe.Sizeof(slabFlow{}); n != 24 {
		t.Errorf("slabFlow is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(scheduleRun{}); n != 48 {
		t.Errorf("scheduleRun is %d bytes, want 48", n)
	}
	for n := 1; n <= maxSlabWords; n++ {
		k := slabClass(n)
		c := slabCap(k)
		if k < 0 || k >= slabClasses || c < n || n <= 32 && c != n || 16*c >= 17*n || slabClass(c) != k {
			t.Fatalf("a %d-word slab takes size class %d of %d, capacity %d; want a capacity that holds it, exact up to 32 words and under 1/16 over above, and gives the class back",
				n, k, slabClasses, c)
		}
	}
	if slabClass(maxSlabWords) != slabClasses-1 {
		t.Errorf("the longest slab is size class %d of %d", slabClass(maxSlabWords), slabClasses)
	}

	top := maxSpecWorkers - 1
	cycle := func(n int, starts []int64) []slabFlow {
		run := make([]slabFlow, n)
		for i := range run {
			run[i] = packFlow(starts[i%len(starts)], []int64{1, math.MaxInt64}[i%2],
				[]int{-1, top}[i/2%2], []int{top, -1}[i/3%2], []int{0, math.MaxUint16}[i/5%2])
		}
		return run
	}
	spread := make([]int64, chunkLen)
	for i := range spread {
		spread[i] = int64(sim.MaxTime) / (chunkLen - 1) * int64(i)
	}
	spread[chunkLen-1] = int64(sim.MaxTime)
	wide := slabFlow{startNs: math.MaxInt64, bytes: -1, packed: math.MaxUint64}
	widest := make([]slabFlow, chunkLen)
	for i := range widest {
		widest[i] = []slabFlow{{startNs: math.MinInt64}, wide}[i%2]
	}
	cases := []struct {
		name string
		run  []slabFlow
	}{
		{"one flow", cycle(1, []int64{int64(sim.MaxTime)})},
		{"extremes", cycle(12, []int64{0, 0, 1, 1 << 32, 1<<32 + 1, 1<<32 + 1, 5 << 33, 1 << 40, 1<<62 - 1, 1 << 62, int64(sim.MaxTime) - 1, int64(sim.MaxTime)})},
		{"a full chunk", cycle(chunkLen, spread)},
		{"across chunks", cycle(2*chunkLen+3, spread[:chunkLen/2])}, // unsorted: each chunk restarts
		{"chunks out of order", cycle(2*chunkLen, spread)},          // each sorted, the second starting first
		{"zero widths", []slabFlow{packFlow(9, 0, -1, -1, 0), packFlow(9, 0, -1, -1, 0), packFlow(9, 0, -1, -1, 0)}},
		{"64-bit fields", []slabFlow{{startNs: math.MinInt64, bytes: 1}, {startNs: -1}, wide, wide}},
		{"64-bit fields, unsorted", []slabFlow{wide, {startNs: math.MinInt64, bytes: 1}, wide, {startNs: -1, packed: 1}}},
		{"full width chunk", widest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newScheduleBuilder([]int64{math.MinInt64}, int64(len(c.run)), nil)
			for _, f := range c.run {
				b.add(f)
			}
			b.endRun("job", 1)
			var want []slabFlow
			sorted := slices.IsSortedFunc(c.run, slabByStart)
			for i := 0; i < len(c.run); i += chunkLen {
				chunk := slices.Clone(c.run[i:min(i+chunkLen, len(c.run))])
				slices.SortStableFunc(chunk, slabByStart)
				want = append(want, chunk...)
			}
			if runs := b.drawn; sorted && runs != 1 || !sorted && runs != len(b.runs) {
				t.Errorf("%d slabs pushed as %d runs; sorted %v", len(b.runs), runs, sorted)
			}
			var got, bitwise []slabFlow
			for i := range b.runs {
				r := &b.runs[i]
				if len(r.slab) > maxSlabWords || cap(r.slab) != slabCap(slabClass(len(r.slab))) {
					t.Errorf("slab %d is %d words of capacity %d", i, len(r.slab), cap(r.slab))
				}
				bitwise = append(bitwise, unpackSlab(r.slab)...)
				key, more := r.first(), true
				for more {
					var d SynthFlow
					start := key
					key, more = r.emit(&d, start)
					if d.Job != "job" || d.Phase != flows.AllPhases[1] {
						t.Fatalf("decoded job %q phase %q", d.Job, d.Phase)
					}
					eph := d.SrcPort
					if phaseRules[d.Phase].portOnSrc {
						eph = d.DstPort
					}
					got = append(got, packFlow(d.StartNs, d.Bytes, d.SrcHost, d.DstHost, eph))
				}
			}
			for what, got := range map[string][]slabFlow{"the cursor decodes": got, "the slabs hold": bitwise} {
				if len(got) != len(want) {
					t.Fatalf("%s %d flows, want %d", what, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %+v at flow %d, want %+v", what, got[i], i, want[i])
					}
				}
			}
		})
	}
}

// FuzzScheduleMerge: for arbitrary sources — each with a bound and runs
// whose start times are at or above it, with ties, empty runs and
// unsorted runs, optionally followed by a bound-0 source as a
// background is, optionally with every start time repeated so that
// runs cross chunk boundaries, and optionally spread over the whole
// int64 range with sizes at the top bit, so that fields take 64 bits —
// the lazy merge equals a stable sort of every run sampled eagerly.
func FuzzScheduleMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 3, 0, 1, 2, 2, 1, 1, 4, 1, 2, 3, 1, 1, 0, 0, 5, 9, 1})
	f.Add([]byte{5, 1, 1, 2, 3, 3, 3, 3, 1, 0, 3, 0, 0, 0, 0, 4, 2, 1, 9, 9, 7, 2, 1, 1})
	f.Add([]byte{2, 15, 3, 5, 3, 2, 1, 0, 3, 0, 0, 1, 2, 7, 1, 4, 1, 1, 1, 1, 3, 6, 2, 1, 0})
	f.Add([]byte{2, 0, 2, 5, 0, 1, 2, 2, 3, 4, 3, 1, 3, 2, 0, 1, 3, 1, 3, 1, 3, 0, 1, 7, 9, 3, 0, 7, 5, 2, 3, 120}) // runs of 363 to 847 flows
	// 64-bit deltas and sizes, in runs that cross slabs.
	f.Add([]byte{0, 0, 1, 3, 0, 1, 3, 1, 3, 31, 0, 17, 90, 1})
	// A run whose slabs are each in order but start before the one
	// before ends.
	f.Add([]byte{0, 0, 1, 4, 1, 2, 3, 0, 0, 84, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		srcs := make([]testSource, next()%6+1)
		for i := range srcs {
			srcs[i].bound = int64(next() % 16)
			srcs[i].runs = make([][]int64, next()%4)
			for r := range srcs[i].runs {
				run := make([]int64, next()%6)
				for j := range run {
					run[j] = srcs[i].bound + int64(next()%4)
				}
				srcs[i].runs[r] = run
			}
		}
		if next()%2 == 1 {
			run := make([]int64, next()%8)
			for j := range run {
				run[j] = int64(next() % 32)
			}
			srcs = append(srcs, testSource{bound: 0, runs: [][]int64{run}})
		}
		if rep := next() % 128; rep > 0 {
			for i := range srcs {
				for r, run := range srcs[i].runs {
					long := make([]int64, 0, len(run)*(rep+1))
					for _, ns := range run {
						for range rep + 1 {
							long = append(long, ns)
						}
					}
					srcs[i].runs[r] = long
				}
			}
		}
		if next()%2 == 1 {
			// Spread every bound and start time over the whole int64
			// range in order, so a delta and a size take all 64 bits.
			spread := func(v int64) int64 { return int64(uint64(v)*(math.MaxUint64/31) + 1<<63) }
			for i := range srcs {
				srcs[i].bound, srcs[i].wide = spread(srcs[i].bound), true
				for _, run := range srcs[i].runs {
					for j := range run {
						run[j] = spread(run[j])
					}
				}
			}
		}
		checkSourceMerge(t, srcs, 1, 3, 4096)
	})
}

// TestMergeOrderProperty: for single-job and mix schedules — staggered,
// overlapping, all-at-once (mass ties), with background traffic — the
// batch and chunked outputs equal a stable sort of the builder's runs,
// and the batch result is one exact-size allocation.
func TestMergeOrderProperty(t *testing.T) {
	model := mixModel(t)
	type build func() (*scheduleBuilder, error)
	type gen func(ctx context.Context, chunk int, emit func([]SynthFlow) error) error
	type batch func() ([]SynthFlow, error)
	type tc struct {
		name  string
		bg    bool
		build build
		gen   gen
		batch batch
	}
	var cases []tc
	for _, spec := range []GenSpec{
		{Workload: "terasort", Jobs: 3, Stagger: 1, Seed: 1},
		{Workload: "terasort", Jobs: 4, Stagger: 0.25, Seed: 7},
		{Workload: "terasort", Jobs: 3, Stagger: 1e-9, Seed: 8},
		{Workload: "terasort", Jobs: 4, Stagger: 0.25, Seed: 2, IncludeBackground: true},
		{Workload: "wordcount", Jobs: 5, Stagger: -1, Seed: 3},
		{Workload: "wordcount", Jobs: 3, Stagger: 1, Seed: 4, IncludeBackground: true},
	} {
		cases = append(cases, tc{
			name:  fmt.Sprintf("%s/jobs%d/stagger%g/bg%v", spec.Workload, spec.Jobs, spec.Stagger, spec.IncludeBackground),
			bg:    spec.IncludeBackground,
			build: func() (*scheduleBuilder, error) { return model.schedule(context.Background(), spec) },
			gen: func(ctx context.Context, chunk int, emit func([]SynthFlow) error) error {
				return model.GenerateChunks(ctx, spec, chunk, emit)
			},
			batch: func() ([]SynthFlow, error) { return model.Generate(context.Background(), spec) },
		})
	}
	for _, spec := range []MixSpec{
		{Weights: map[string]float64{"terasort": 1, "wordcount": 2}, JobsPerMinute: 30, WindowSecs: 120, Workers: 8, Seed: 5},
		{Weights: map[string]float64{"terasort": 1}, JobsPerMinute: 60, WindowSecs: 60, Workers: 8, Seed: 6, IncludeBackground: true},
	} {
		cases = append(cases, tc{
			name:  fmt.Sprintf("mix/seed%d/bg%v", spec.Seed, spec.IncludeBackground),
			bg:    spec.IncludeBackground,
			build: func() (*scheduleBuilder, error) { return model.mixSchedule(context.Background(), spec) },
			gen: func(ctx context.Context, chunk int, emit func([]SynthFlow) error) error {
				return model.GenerateMixChunks(ctx, spec, chunk, emit)
			},
			batch: func() ([]SynthFlow, error) { return model.GenerateMix(context.Background(), spec) },
		})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			sampleAll(t, b)
			if len(b.runs) < 2 {
				t.Fatalf("%d runs: nothing to merge", len(b.runs))
			}
			if last := b.runs[len(b.runs)-1]; c.bg != (last.job == "background") {
				t.Fatalf("background run present = %v, want %v", last.job == "background", c.bg)
			}
			want := stableOracle(concatRuns(b))

			got, err := c.batch()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch schedule (%d flows) differs from the stable-sort oracle (%d flows)", len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Errorf("batch schedule has cap %d for %d flows; want one exact-size allocation", cap(got), len(got))
			}

			for _, size := range []int{1, 7, 4096} {
				var streamed []SynthFlow
				err := c.gen(context.Background(), size, func(chunk []SynthFlow) error {
					if len(chunk) == 0 || len(chunk) > size {
						t.Fatalf("chunk of %d flows with chunk size %d", len(chunk), size)
					}
					streamed = append(streamed, chunk...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(streamed, want) {
					t.Fatalf("chunk size %d: streamed schedule differs from the stable-sort oracle", size)
				}
			}
		})
	}
}
