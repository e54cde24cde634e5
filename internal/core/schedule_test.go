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
// so the oracle shares no code with what it checks.
func concatRuns(b *scheduleBuilder) []SynthFlow {
	var out []SynthFlow
	for i, r := range b.runs {
		end := len(b.flows)
		if i+1 < len(b.runs) {
			end = b.runs[i+1].start
		}
		for _, f := range b.flows[r.start:end] {
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

// TestRunMergeMatchesStableSort drives the builder directly with tied,
// single-flow and unsorted runs: the unsorted one exercises the safety
// net that sorts any run the sampling loops failed to keep in order.
// Every run has its own job and phase, so a flow expanded with another
// run's metadata fails.
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
	b := newScheduleBuilder(0)
	for r, starts := range runs {
		first := len(b.flows)
		job, phase := fmt.Sprintf("job%d", r), flows.Phase(fmt.Sprintf("phase%d", r))
		for i, ns := range starts {
			concat = append(concat, SynthFlow{
				StartNs: ns, SrcHost: r, DstHost: i, SrcPort: 1000 + r, DstPort: 2000 + i,
				Bytes: int64(100*r + i), Phase: phase, Job: job,
			})
			b.flows = append(b.flows, slabFlow{
				startNs: ns, src: int32(r), dst: int32(i), srcPort: uint16(1000 + r), dstPort: uint16(2000 + i),
				bytes: int64(100*r + i),
			})
		}
		b.endRun(first, job, phase)
	}
	want := stableOracle(concat)
	if got := stableOracle(concatRuns(b)); !reflect.DeepEqual(got, want) {
		t.Fatalf("builder runs\n got %v\nwant %v", got, want)
	}
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
			build: func() (*scheduleBuilder, error) { return model.build(context.Background(), spec) },
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
			build: func() (*scheduleBuilder, error) { return model.buildMix(context.Background(), spec) },
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
