package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"keddah/internal/flows"
)

// stableOracle is the order the run merge must reproduce: the
// concatenated runs through a reflective stable sort by start time.
func stableOracle(concat []SynthFlow) []SynthFlow {
	out := slices.Clone(concat)
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// concatRuns is the builder's runs concatenated in run order, expanded
// to SynthFlows field by field here, not through the merge's expansion,
// so the oracle shares no code with what it checks. The runs must not
// have been merged yet (sampleAll).
func concatRuns(b *scheduleBuilder) []SynthFlow {
	var out []SynthFlow
	for _, r := range b.runs {
		for _, f := range r.flows {
			out = append(out, SynthFlow{
				StartNs: f.startNs,
				SrcHost: int(f.src),
				DstHost: int(f.dst),
				SrcPort: int(f.srcPort),
				DstPort: int(f.dstPort),
				Bytes:   f.bytes,
				Phase:   r.phase,
				Job:     r.job,
			})
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
// flows start at or after, and the start times of each of its runs.
type testSource struct {
	bound int64
	runs  [][]int64
}

// sourceSchedule returns a builder over srcs and, built independently
// of it, the concatenation of their runs in draw order. Every run has
// its own job and phase, so a flow expanded with another run's metadata
// fails.
func sourceSchedule(srcs []testSource) (*scheduleBuilder, []SynthFlow) {
	var concat []SynthFlow
	bounds := make([]int64, len(srcs))
	var total int64
	r := 0
	for i, src := range srcs {
		bounds[i] = src.bound
		for _, starts := range src.runs {
			job, phase := fmt.Sprintf("job%d", r), flows.Phase(fmt.Sprintf("phase%d", r))
			for j, ns := range starts {
				concat = append(concat, SynthFlow{
					StartNs: ns, SrcHost: r, DstHost: j, SrcPort: 1000 + r, DstPort: 2000 + j,
					Bytes: int64(100*r + j), Phase: phase, Job: job,
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
	rest := 0
	for _, starts := range s.srcs[i].runs {
		rest += len(starts)
	}
	for _, starts := range s.srcs[i].runs {
		slab := b.take(len(starts), rest)
		rest -= len(starts)
		r := s.runs
		for j, ns := range starts {
			slab[j] = slabFlow{
				startNs: ns, src: int32(r), dst: int32(j), srcPort: uint16(1000 + r), dstPort: uint16(2000 + j),
				bytes: int64(100*r + j),
			}
		}
		b.endRun(slab, fmt.Sprintf("job%d", r), flows.Phase(fmt.Sprintf("phase%d", r)))
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
// and end on a bound-0 source, as a background does.
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkSourceMerge(t, c.srcs, 1, 2, 5, 7, 100, 4096)
		})
	}
}

// FuzzScheduleMerge: for arbitrary sources — each with a bound and runs
// whose start times are at or above it, with ties, empty runs and
// unsorted runs, optionally followed by a bound-0 source as a
// background is — the lazy merge equals a stable sort of every run
// sampled eagerly.
func FuzzScheduleMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 3, 0, 1, 2, 2, 1, 1, 4, 1, 2, 3, 1, 1, 0, 0, 5, 9, 1})
	f.Add([]byte{5, 1, 1, 2, 3, 3, 3, 3, 1, 0, 3, 0, 0, 0, 0, 4, 2, 1, 9, 9, 7, 2, 1, 1})
	f.Add([]byte{2, 15, 3, 5, 3, 2, 1, 0, 3, 0, 0, 1, 2, 7, 1, 4, 1, 1, 1, 1, 3, 6, 2, 1, 0})
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
