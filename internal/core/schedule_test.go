package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// stableOracle is the order the run merge must reproduce: the
// concatenated runs through a reflective stable sort by start time.
func stableOracle(concat []SynthFlow) []SynthFlow {
	out := slices.Clone(concat)
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// TestRunMergeMatchesStableSort drives the builder directly with tied,
// single-flow and unsorted runs: the unsorted one exercises the safety
// net that sorts any run the sampling loops failed to keep in order.
func TestRunMergeMatchesStableSort(t *testing.T) {
	runs := [][]int64{
		{1, 1, 2, 9},
		{},
		{1, 3},
		{0},
		{5, 1, 1, 0, 9, 1}, // unsorted
		{1, 1, 1},
	}
	var concat []SynthFlow
	b := newScheduleBuilder(0, 0)
	for r, starts := range runs {
		first := len(b.flows)
		for i, ns := range starts {
			sf := SynthFlow{StartNs: ns, SrcHost: r, DstHost: i}
			concat = append(concat, sf)
			b.flows = append(b.flows, sf)
		}
		b.endRun(first)
	}
	want := stableOracle(concat)
	if got := b.collect(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order\n got %v\nwant %v", got, want)
	}
	for _, size := range []int{1, 2, 5, 100} {
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
		{Workload: "terasort", Jobs: 4, Stagger: 0.25, Seed: 2, IncludeBackground: true},
		{Workload: "wordcount", Jobs: 5, Stagger: -1, Seed: 3},
		{Workload: "wordcount", Jobs: 3, Stagger: 1, Seed: 4, IncludeBackground: true},
	} {
		cases = append(cases, tc{
			name:  fmt.Sprintf("%s/jobs%d/stagger%g/bg%v", spec.Workload, spec.Jobs, spec.Stagger, spec.IncludeBackground),
			bg:    spec.IncludeBackground,
			build: func() (*scheduleBuilder, error) { return model.build(context.Background(), spec, 0) },
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
			build: func() (*scheduleBuilder, error) { return model.buildMix(context.Background(), spec, 0) },
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
			if len(b.runs) < 2 {
				t.Fatalf("%d runs: nothing to merge", len(b.runs))
			}
			if last := b.flows[len(b.flows)-1]; c.bg != (last.Job == "background") {
				t.Fatalf("background run present = %v, want %v", last.Job == "background", c.bg)
			}
			want := stableOracle(b.flows)

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
