package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/stats"
)

// TestGenerateChunksMatchesBatch: the chunked path must deliver exactly
// the flows Generate returns, in order, in bounded pieces.
func TestGenerateChunksMatchesBatch(t *testing.T) {
	model := mixModel(t)
	spec := GenSpec{Workload: "terasort", Jobs: 3, Seed: 9}
	want, err := model.Generate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []SynthFlow
	chunks := 0
	err = model.GenerateChunks(context.Background(), spec, 7, func(c []SynthFlow) error {
		if len(c) > 7 {
			t.Fatalf("chunk of %d flows exceeds the requested size", len(c))
		}
		got = append(got, c...)
		chunks++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked flows differ from batch: %d vs %d", len(got), len(want))
	}
	if chunks < 2 {
		t.Fatalf("%d flows arrived in %d chunk(s); chunking did not happen", len(got), chunks)
	}
}

// TestGenerateMixChunksMatchesBatch does the same for the mix path.
func TestGenerateMixChunksMatchesBatch(t *testing.T) {
	model := mixModel(t)
	spec := MixSpec{
		Weights:       map[string]float64{"terasort": 1, "wordcount": 1},
		JobsPerMinute: 4,
		WindowSecs:    300,
		Workers:       8,
		Seed:          3,
	}
	want, err := model.GenerateMix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []SynthFlow
	err = model.GenerateMixChunks(context.Background(), spec, 11, func(c []SynthFlow) error {
		got = append(got, c...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked mix differs from batch: %d vs %d flows", len(got), len(want))
	}
}

// TestGenerateChunksCancellation: a cancelled context stops emission at
// the next chunk boundary with the context's error.
func TestGenerateChunksCancellation(t *testing.T) {
	model := mixModel(t)
	spec := GenSpec{Workload: "terasort", Jobs: 3, Seed: 9}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := model.GenerateChunks(ctx, spec, 7, func([]SynthFlow) error {
			t.Fatal("emit called with a dead context")
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
	t.Run("mid-stream", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		err := model.GenerateChunks(ctx, spec, 7, func([]SynthFlow) error {
			calls++
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if calls != 1 {
			t.Fatalf("%d emits after cancellation, want exactly 1", calls)
		}
	})
	// The slice-returning collectors honour the same context.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	t.Run("Generate pre-cancelled", func(t *testing.T) {
		if _, err := model.Generate(dead, spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
	t.Run("GenerateMix pre-cancelled", func(t *testing.T) {
		mix := MixSpec{Weights: map[string]float64{"terasort": 1}, JobsPerMinute: 4, WindowSecs: 300, Workers: 8, Seed: 3}
		if _, err := model.GenerateMix(dead, mix); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
}

// TestGenerateChunksEmitError: an emit failure (a dead client in serve)
// aborts generation and propagates.
func TestGenerateChunksEmitError(t *testing.T) {
	model := mixModel(t)
	sink := errors.New("client hung up")
	calls := 0
	err := model.GenerateChunks(context.Background(), GenSpec{Workload: "terasort", Jobs: 3, Seed: 9}, 7,
		func([]SynthFlow) error {
			calls++
			if calls == 2 {
				return sink
			}
			return nil
		})
	if !errors.Is(err, sink) {
		t.Fatalf("got %v, want the emit error", err)
	}
	if calls != 2 {
		t.Fatalf("%d emits after the failure, want exactly 2", calls)
	}
}

// TestEstimateFlowsExact: the admission-control estimate must equal the
// real schedule length — it gates requests, so an undercount would let
// an oversized schedule through and an overcount would shed valid work.
func TestEstimateFlowsExact(t *testing.T) {
	model := mixModel(t)
	specs := []GenSpec{
		{Workload: "terasort"},
		{Workload: "terasort", Jobs: 3, Seed: 5},
		{Workload: "terasort", InputBytes: 1 << 30, Jobs: 2, Workers: 8},
		{Workload: "wordcount", Jobs: 2, IncludeBackground: true},
		{Workload: "wordcount", InputBytes: 2 << 30, Reducers: 12, Stagger: 0.25, Jobs: 4, IncludeBackground: true},
	}
	for _, spec := range specs {
		n, err := model.EstimateFlows(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		sched, err := model.Generate(context.Background(), spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if n != int64(len(sched)) {
			t.Errorf("%+v: estimated %d flows, generated %d", spec, n, len(sched))
		}
	}
	if _, err := model.EstimateFlows(GenSpec{Workload: "nosuch"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := model.EstimateFlows(GenSpec{Workload: "terasort", Jobs: -1}); !errors.Is(err, ErrBadSpec) {
		t.Fatal("invalid spec accepted")
	}
}

// TestEstimateMixFlows: the mix estimate is the exact schedule length
// without background, and with it counts every arrival flow plus the
// heartbeats of the window, which the schedule's background covers at
// least.
func TestEstimateMixFlows(t *testing.T) {
	model := mixModel(t)
	specs := []MixSpec{
		{Weights: map[string]float64{"terasort": 1}, Seed: 1},
		{Weights: map[string]float64{"terasort": 1, "wordcount": 2}, JobsPerMinute: 8, WindowSecs: 120, Workers: 8, Seed: 4},
		{Weights: map[string]float64{"wordcount": 1}, JobsPerMinute: 3, InputScale: 2.5, Seed: 7, IncludeBackground: true},
		{Weights: map[string]float64{"terasort": 1, "wordcount": 1}, JobsPerMinute: 6, WindowSecs: 90, Seed: 2, IncludeBackground: true},
	}
	for _, spec := range specs {
		n, err := model.EstimateMixFlows(spec, 0)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		sched, err := model.GenerateMix(context.Background(), spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !spec.IncludeBackground {
			if n != int64(len(sched)) {
				t.Errorf("%+v: estimated %d flows, generated %d", spec, n, len(sched))
			}
			continue
		}
		var arrivalFlows int64
		for _, sf := range sched {
			if sf.Job != "background" {
				arrivalFlows++
			}
		}
		if n <= arrivalFlows || n > int64(len(sched)) {
			t.Errorf("%+v: estimated %d flows, want within (%d, %d]", spec, n, arrivalFlows, len(sched))
		}
	}
	if _, err := model.EstimateMixFlows(MixSpec{Weights: map[string]float64{"nosuch": 1}}, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestGenerateChunksBytesPerFlow is a memory fence on streamed
// generation: a record holds a flow in 24 bytes, the background is
// sorted chunk by chunk in place and the chunk buffer is fixed, so
// streaming a schedule into a no-op emit may allocate at most 40 bytes
// per flow plus 1 MiB. Records of SynthFlows (80 bytes each), or a
// background sorted through a second full-size copy, fail it.
func TestGenerateChunksBytesPerFlow(t *testing.T) {
	model := mixModel(t)
	spec := GenSpec{Workload: "terasort", InputBytes: 16 << 30, Workers: 64, Jobs: 4, Seed: 3, IncludeBackground: true}
	n, err := model.EstimateFlows(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n < 200_000 {
		t.Fatalf("spec schedules %d flows; the fence needs at least 200k", n)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	streamed := 0
	err = model.GenerateChunks(context.Background(), spec, 0, func(c []SynthFlow) error {
		streamed += len(c)
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if int64(streamed) != n {
		t.Fatalf("streamed %d flows, estimated %d", streamed, n)
	}
	const perFlow, fixed = 40, 1 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(perFlow*streamed+fixed) {
		t.Errorf("streaming %d flows allocated %d bytes (%.1f B/flow); the fence is %d B/flow + %d B",
			streamed, grew, float64(grew)/float64(streamed), perFlow, fixed)
	}
}

// TestGenerateChunksBytesPerFlowManyJobs is the memory fence on a
// background-free multi-job stream: each job is sampled only when the
// merge reaches its start and each record chunk is reused once emitted,
// so streaming 40 staggered jobs allocates at most 8 bytes per flow plus
// 1 MiB. Sampling the whole schedule before the first emit costs 24.
func TestGenerateChunksBytesPerFlowManyJobs(t *testing.T) {
	model := mixModel(t)
	spec := GenSpec{Workload: "terasort", InputBytes: 16 << 30, Workers: 64, Jobs: 40, Seed: 3}
	n, err := model.EstimateFlows(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n < 300_000 {
		t.Fatalf("spec schedules %d flows; the fence needs at least 300k", n)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	streamed := 0
	err = model.GenerateChunks(context.Background(), spec, 0, func(c []SynthFlow) error {
		streamed += len(c)
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if int64(streamed) != n {
		t.Fatalf("streamed %d flows, estimated %d", streamed, n)
	}
	const perFlow, fixed = 8, 1 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(perFlow*streamed+fixed) {
		t.Errorf("streaming %d flows allocated %d bytes (%.1f B/flow); the fence is %d B/flow + %d B",
			streamed, grew, float64(grew)/float64(streamed), perFlow, fixed)
	}
}

// TestGenerateChunksBytesPerFlowSmallJobs is the memory fence on the
// run table: a stream of 20,000 one-block jobs has 80,000 runs, but
// each emitted run's slot is reused, so the table holds only the runs
// live at once and streaming allocates at most 16 bytes per flow plus
// 1 MiB. A table that keeps a slot for every run of the stream costs
// about 192.
func TestGenerateChunksBytesPerFlowSmallJobs(t *testing.T) {
	model := mixModel(t)
	spec := GenSpec{Workload: "terasort", InputBytes: 64 << 20, Workers: 8, Jobs: 20_000, Seed: 3}
	n, err := model.EstimateFlows(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n < 100_000 {
		t.Fatalf("spec schedules %d flows; the fence needs at least 100k", n)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	streamed := 0
	err = model.GenerateChunks(context.Background(), spec, 0, func(c []SynthFlow) error {
		streamed += len(c)
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if int64(streamed) != n {
		t.Fatalf("streamed %d flows, estimated %d", streamed, n)
	}
	const perFlow, fixed = 16, 1 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(perFlow*streamed+fixed) {
		t.Errorf("streaming %d flows allocated %d bytes (%.1f B/flow); the fence is %d B/flow + %d B",
			streamed, grew, float64(grew)/float64(streamed), perFlow, fixed)
	}
}

// TestGenerateMixChunksBadLawBeforeEmit: arrivals are sampled only when
// the merge reaches them, but every workload's laws are built first, so
// a law that cannot be built fails the stream before its first emit even
// when only a later arrival uses it.
func TestGenerateMixChunksBadLawBeforeEmit(t *testing.T) {
	model := mixModel(t)
	model.Jobs["wordcount"].Phases[flows.PhaseShuffle].Size = stats.DistSpec{Family: "bogus"}
	spec := MixSpec{Weights: map[string]float64{"terasort": 1, "wordcount": 1}, JobsPerMinute: 6, WindowSecs: 600, Workers: 8, Seed: 2}
	err := model.GenerateMixChunks(context.Background(), spec, 7, func([]SynthFlow) error {
		t.Fatal("emit called before the bad law was refused")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "size law wordcount/shuffle") {
		t.Fatalf("got %v, want the wordcount shuffle size law refused", err)
	}
	if !strings.Contains(err.Error(), "mix arrival ") || strings.Contains(err.Error(), "mix arrival 0 ") {
		t.Fatalf("%v: the first arrival uses the bad law; pick a seed where a later one does", err)
	}
}

// peakLiveHeap streams b into a no-op emit, calling each after every
// emit, and returns the most live heap above the heap before b was
// built (base), read after a GC at the first emit and every 8th after.
func peakLiveHeap(t *testing.T, b *scheduleBuilder, base uint64, each func()) uint64 {
	t.Helper()
	var ms runtime.MemStats
	var emits, streamed int
	var peak uint64
	err := b.stream(context.Background(), 0, func(c []SynthFlow) error {
		emits++
		streamed += len(c)
		each()
		if emits%8 == 1 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc-min(base, ms.HeapAlloc))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(streamed) != b.total {
		t.Fatalf("streamed %d flows of %d", streamed, b.total)
	}
	return peak
}

// heapNow is the live heap after a GC.
func heapNow() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pending is the number of r's records not yet emitted.
func (r *scheduleRun) pending() int {
	if r.slab == nil {
		return 0
	}
	return int(slabHead(r.slab[1]).get(headCount)) - int(r.at)
}

// TestGenerateChunksBytesPerFlowOverlappingJobs is the memory fence on
// the live heap of a stream whose jobs overrun into each other: 40
// terasort jobs on 64 workers, each of which outlasts its nominal span,
// so many runs are sampled but only partly emitted at once. A slab goes
// back to the free list as soon as the merge has emitted its last flow,
// and packs a flow in about 10 bytes, so the peak live heap may exceed
// 16 bytes per pending flow (sampled, not yet emitted, counted from each
// slab's record count and cursor) by at most 1 MiB. Fixed 24-byte
// records exceed it, and holding each run's flows until its last one is
// emitted keeps about twice the pending flows.
func TestGenerateChunksBytesPerFlowOverlappingJobs(t *testing.T) {
	model, err := FitBulkCorpus()
	if err != nil {
		t.Fatal(err)
	}
	spec := GenSpec{Workload: "terasort", InputBytes: 32 << 30, Workers: 64, Jobs: 40, Seed: 11}
	base := heapNow()
	b, err := model.schedule(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var peakPending int
	peakHeap := peakLiveHeap(t, b, base, func() {
		pending := 0
		for i := range b.runs {
			pending += b.runs[i].pending()
		}
		peakPending = max(peakPending, pending)
	})
	if peakPending < 300_000 {
		t.Fatalf("at most %d flows pending; the fence needs at least 300k", peakPending)
	}
	const perFlow, fixed = 16, 1 << 20
	t.Logf("peak live heap %d bytes, %d flows pending at most (%.1f B/pending flow)",
		peakHeap, peakPending, float64(peakHeap)/float64(peakPending))
	if peakHeap > uint64(perFlow*peakPending+fixed) {
		t.Errorf("peak live heap %d bytes with at most %d flows pending (%.1f B/flow); the fence is %d B/flow + %d B",
			peakHeap, peakPending, float64(peakHeap)/float64(peakPending), perFlow, fixed)
	}
}

// TestGenerateChunksBytesPerFlowShortRuns is the memory fence on the
// live heap of a stream of short runs all sampled before the first
// emit: 20,000 one-block jobs, 80,000 runs of one to three flows, held
// at once because a background (bound 0) or a negative stagger
// (bounds 1 ns apart) puts every source's floor below the first flow. A
// run shorter than a chunk takes a slab of its length rounded up to a
// power of two, at most 32 bytes a flow for runs of one to three, and
// its slot in the run table is 48 bytes, so the peak live heap may be
// at most 32 bytes per flow plus 64 per run plus 1 MiB. Giving every run
// a whole chunk costs over 3 KiB per run.
func TestGenerateChunksBytesPerFlowShortRuns(t *testing.T) {
	model := mixModel(t)
	for _, spec := range []GenSpec{
		{Workload: "terasort", InputBytes: 64 << 20, Workers: 8, Jobs: 20_000, Seed: 3, IncludeBackground: true},
		{Workload: "terasort", InputBytes: 64 << 20, Workers: 8, Jobs: 20_000, Seed: 3, Stagger: -1},
	} {
		t.Run(fmt.Sprintf("background=%v/stagger=%g", spec.IncludeBackground, spec.Stagger), func(t *testing.T) {
			base := heapNow()
			b, err := model.schedule(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			peakHeap := peakLiveHeap(t, b, base, func() {})
			flows, runs := int(b.total), b.drawn
			if runs < 80_000 {
				t.Fatalf("%d runs; the fence needs at least 80k", runs)
			}
			const perFlow, perRun, fixed = 32, 64, 1 << 20
			t.Logf("peak live heap %d bytes for %d flows in %d runs (%.1f B/flow)",
				peakHeap, flows, runs, float64(peakHeap)/float64(flows))
			if peakHeap > uint64(perFlow*flows+perRun*runs+fixed) {
				t.Errorf("peak live heap %d bytes for %d flows in %d runs; the fence is %d B/flow + %d B/run + %d B",
					peakHeap, flows, runs, perFlow, perRun, fixed)
			}
		})
	}
}
