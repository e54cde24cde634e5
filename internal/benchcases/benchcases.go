// Package benchcases holds the benchmark bodies shared by the root bench
// suite (go test -bench) and cmd/keddah-bench's -benchjson mode. Keeping
// one copy of each body means the committed BENCH_netsim.json numbers and
// the `go test -bench` numbers measure the identical workload.
package benchcases

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// Case is a named benchmark body runnable via testing.Benchmark.
type Case struct {
	Name string
	Fn   func(*testing.B)
}

// Cases lists the benchmark bodies exported for machine-readable runs:
// the netsim hot path and the end-to-end replay/capture pipelines built
// on it.
func Cases() []Case {
	return []Case{
		{"NetsimFanIn", NetsimFanIn},
		{"NetsimFanInTCP", NetsimFanInTCP},
		{"NetsimFanInSharded", NetsimFanInSharded},
		{"ReplayFatTree", ReplayFatTree},
		{"ReplayFatTreeTelemetry", ReplayFatTreeTelemetry},
		{"CaptureTerasort", CaptureTerasort},
		{"CaptureTerasortTCP", CaptureTerasortTCP},
		{"CaptureMultiPodSharded", CaptureMultiPodSharded},
		{"FitTerasort", FitTerasort},
		{"ClassifyDataset", ClassifyDataset},
		{"TraceSetJSON", TraceSetJSON},
		{"GenerateSchedule", GenerateSchedule},
		{"GenerateStream", GenerateStream},
		{"GenerateStreamOverlap", GenerateStreamOverlap},
		{"EncodeSchedule", EncodeSchedule},
		{"EncodeStreamOverlap", EncodeStreamOverlap},
	}
}

// fitCorpus captures the small multi-run terasort corpus the modelling
// benchmarks fit from (two runs at different input sizes so the
// duration line and count/unit ratios see variation).
func fitCorpus(b *testing.B) *core.TraceSet {
	b.Helper()
	ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 16, Seed: 6},
		[]workload.RunSpec{
			{Profile: "terasort", InputBytes: 512 << 20, JobName: "ts-a", InputPath: "/data/a"},
			{Profile: "terasort", InputBytes: 640 << 20, JobName: "ts-b", InputPath: "/data/b"},
		}, core.CaptureOpts{})
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// FitTerasort measures the modelling stage (toolchain stage 2): fitting
// the per-phase size / inter-arrival / offset laws of a two-run terasort
// corpus, including AIC model selection and the goodness-of-fit report.
// The capture runs outside the timer.
func FitTerasort(b *testing.B) {
	ts := fitCorpus(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model, err := core.FitWith(ts, core.FitOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if model.Jobs["terasort"] == nil {
			b.Fatal("terasort model missing")
		}
	}
}

// generateModel fits the model the generation benchmarks sample from:
// two 512 MiB terasort runs on 16 workers.
func generateModel(b *testing.B) *core.Model {
	b.Helper()
	ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 16, Seed: 5},
		[]workload.RunSpec{
			{Profile: "terasort", InputBytes: 512 << 20, JobName: "a", InputPath: "/d"},
			{Profile: "terasort", InputBytes: 512 << 20, JobName: "b", InputPath: "/d"},
		}, core.CaptureOpts{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.FitWith(ts, core.FitOptions{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return model
}

// generateSpec is the generation benchmarks' schedule: four 8 GiB
// terasort jobs on 64 workers.
func generateSpec(seed int64) core.GenSpec {
	return core.GenSpec{Workload: "terasort", InputBytes: 8 << 30, Workers: 64, Jobs: 4, Seed: seed}
}

// GenerateSchedule measures synthetic-traffic generation from a fitted
// model (toolchain stage 3): four 8 GiB terasort jobs on 64 workers. The
// one-off capture+fit runs outside the timer.
func GenerateSchedule(b *testing.B) {
	model := generateModel(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched, err := model.Generate(context.Background(), generateSpec(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(sched) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// GenerateStream measures the streamed form of GenerateSchedule's
// schedule: GenerateChunks into a no-op emit in default-sized chunks,
// the path keddah-serve and bulk export take. Its B/op is the per-stream
// memory cost.
func GenerateStream(b *testing.B) {
	model := generateModel(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamed := 0
		err := model.GenerateChunks(context.Background(), generateSpec(int64(i)), 0, func(c []core.SynthFlow) error {
			streamed += len(c)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if streamed == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// GenerateStreamOverlap measures a stream whose jobs overrun into each
// other: ten 32 GiB terasort jobs on 64 workers from the bulk corpus
// model (core.FitBulkCorpus), seed 11, through GenerateChunks into a
// no-op emit. Each job outlasts its nominal span, so many runs are
// sampled but only partly emitted at once, and its B/op is what the
// streamed path allocates to hold them.
// The one-off capture+fit runs outside the timer.
func GenerateStreamOverlap(b *testing.B) {
	model, err := core.FitBulkCorpus()
	if err != nil {
		b.Fatal(err)
	}
	spec := core.GenSpec{Workload: "terasort", InputBytes: 32 << 30, Workers: 64, Jobs: 10, Seed: 11}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamed := 0
		if err := model.GenerateChunks(context.Background(), spec, 0, func(c []core.SynthFlow) error {
			streamed += len(c)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if streamed == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// encodeScheduleFlows is the size of EncodeSchedule's fixed schedule.
const encodeScheduleFlows = 100_000

// EncodeSchedule measures the export stage: a fixed 100k-flow schedule
// (eight jobs, every phase, master-bound control flows) encoded as csv,
// jsonl and ns3 into io.Discard, each format through one StreamEncoder
// fed in 4096-flow chunks the way keddah-serve feeds it.
func EncodeSchedule(b *testing.B) {
	phases := flows.AllPhases
	jobs := make([]string, 8)
	for j := range jobs {
		jobs[j] = fmt.Sprintf("terasort-gen%d", j)
	}
	sched := make([]core.SynthFlow, encodeScheduleFlows)
	for i := range sched {
		ph := phases[i%len(phases)]
		dst := (i*7 + 3) % 64
		if ph == flows.PhaseControl {
			dst = -1
		}
		sched[i] = core.SynthFlow{
			StartNs: int64(i) * 1_234_567, SrcHost: i % 64, DstHost: dst,
			SrcPort: flows.EphemeralPortLo + i%flows.EphemeralPorts, DstPort: 13562, Bytes: int64(1+i%977) << 12,
			Phase: ph, Job: jobs[(i/1000)%len(jobs)],
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, format := range []string{"csv", "jsonl", "ns3"} {
			enc, err := core.NewStreamEncoder(format, io.Discard, 64)
			if err != nil {
				b.Fatal(err)
			}
			if err := enc.Begin(); err != nil {
				b.Fatal(err)
			}
			for rest := sched; len(rest) > 0; rest = rest[min(4096, len(rest)):] {
				if err := enc.Flows(rest[:min(4096, len(rest))]); err != nil {
					b.Fatal(err)
				}
			}
			if err := enc.End(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EncodeStreamOverlap measures the export of a merged stream:
// GenerateStreamOverlap's schedule, generated once outside the timer,
// encoded as jsonl into io.Discard in 4096-flow chunks. Its rows change
// job on most rows, where EncodeSchedule's change once every 1,000, so
// it times the encoder's string-table lookups past the previous row's.
func EncodeStreamOverlap(b *testing.B) {
	model, err := core.FitBulkCorpus()
	if err != nil {
		b.Fatal(err)
	}
	spec := core.GenSpec{Workload: "terasort", InputBytes: 32 << 30, Workers: 64, Jobs: 10, Seed: 11}
	sched, err := model.Generate(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := core.NewStreamEncoder("jsonl", io.Discard, spec.Workers)
		if err != nil {
			b.Fatal(err)
		}
		if err := enc.Begin(); err != nil {
			b.Fatal(err)
		}
		for rest := sched; len(rest) > 0; rest = rest[min(4096, len(rest)):] {
			if err := enc.Flows(rest[:min(4096, len(rest))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.End(); err != nil {
			b.Fatal(err)
		}
	}
}

// ClassifyDataset measures the flow-classification and per-phase slicing
// path the modelling stage leans on: building a classified dataset from
// raw records, slicing every phase, and extracting the per-phase size,
// duration and inter-arrival series.
func ClassifyDataset(b *testing.B) {
	ts := fitCorpus(b)
	records := ts.Runs[0].Records
	phases := append([]flows.Phase{}, flows.AllPhases...)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds := flows.NewDataset(records)
		total := 0
		for _, ph := range phases {
			sub := ds.ByPhase(ph)
			total += len(sub.Sizes("")) + len(sub.Durations("")) + len(sub.InterArrivals(""))
		}
		if total == 0 {
			b.Fatal("classification produced no per-phase series")
		}
	}
}

// TraceSetJSON measures the trace-set artifact round trip: WriteJSON of
// the 16-worker fitCorpus capture into a reused buffer, then ReadTraceSet
// of those bytes. The capture runs outside the timer.
func TraceSetJSON(b *testing.B) {
	ts := fitCorpus(b)
	var buf bytes.Buffer
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ts.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		back, err := core.ReadTraceSet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if len(back.Runs) != len(ts.Runs) || len(back.Background) != len(ts.Background) {
			b.Fatalf("read back %d runs and %d background records, wrote %d and %d",
				len(back.Runs), len(back.Background), len(ts.Runs), len(ts.Background))
		}
	}
}

// NetsimFanIn measures flow-level simulation throughput: 512 flows
// converging on 16 hosts with max-min reallocation at every arrival and
// departure.
func NetsimFanIn(b *testing.B) { netsimFanIn(b, netsim.Config{}) }

// NetsimFanInTCP is NetsimFanIn under the flow-level TCP transport: the
// same 512-flow fan-in now pays per-flow window bookkeeping, millisecond
// tick settlement and loss recovery. Comparing its ns/op against
// NetsimFanIn in BENCH_netsim.json bounds the TCP-mode overhead.
func NetsimFanInTCP(b *testing.B) { netsimFanIn(b, netsim.Config{Transport: "tcp"}) }

// netsimFanIn runs the 512-flow fan-in on a 17-host star under cfg.
func netsimFanIn(b *testing.B, cfg netsim.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo, err := netsim.Star(17, netsim.Gbps)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.New()
		net := netsim.NewNetwork(eng, topo, cfg)
		h := topo.Hosts()
		for f := 0; f < 512; f++ {
			src, dst := h[f%16], h[(f+1)%16+1]
			delay := sim.Time(f) * 1_000_000
			fl := f
			eng.After(delay, func() {
				if _, err := net.StartFlow(netsim.FlowSpec{
					Src: src, Dst: dst, SrcPort: fl, DstPort: 80, SizeBytes: 10 << 20,
				}); err != nil {
					b.Error(err)
				}
			})
		}
		if _, err := eng.RunAll(); err != nil {
			b.Fatal(err)
		}
		if net.Completed() != 512 {
			b.Fatalf("completed %d flows", net.Completed())
		}
	}
}

// NetsimFanInSharded is the NetsimFanIn workload split across a 4-pod
// sharded scheduler: each pod owns its own Star(17) topology, network and
// 128 of the 512 flows, and the windowed drain replaces RunAll. Comparing
// its ns/op against NetsimFanIn in BENCH_netsim.json bounds the window
// protocol's overhead (barriers, boundary peeks, worker handoff) on the
// netsim hot path.
func NetsimFanInSharded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const pods = 4
		sched, err := sim.NewSharded(pods, pods, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		nets := make([]*netsim.Network, pods)
		for p := 0; p < pods; p++ {
			topo, err := netsim.Star(17, netsim.Gbps)
			if err != nil {
				b.Fatal(err)
			}
			eng := sched.PodEngine(p)
			net := netsim.NewNetwork(eng, topo, netsim.Config{})
			nets[p] = net
			h := topo.Hosts()
			for f := 0; f < 128; f++ {
				src, dst := h[f%16], h[(f+1)%16+1]
				delay := sim.Time(f) * 1_000_000
				fl := f
				eng.After(delay, func() {
					if _, err := net.StartFlow(netsim.FlowSpec{
						Src: src, Dst: dst, SrcPort: fl, DstPort: 80, SizeBytes: 10 << 20,
					}); err != nil {
						b.Error(err)
					}
				})
			}
		}
		if _, err := sched.Drain(); err != nil {
			b.Fatal(err)
		}
		var total uint64
		for _, net := range nets {
			total += net.Completed()
		}
		if total != 512 {
			b.Fatalf("completed %d flows", total)
		}
	}
}

// ReplayFatTree measures schedule replay on a k=4 fat-tree (toolchain
// stage 4). The one-off capture+fit+generate setup runs outside the timer.
func ReplayFatTree(b *testing.B) {
	ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 16, Seed: 6},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: 512 << 20}}, core.CaptureOpts{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.FitWith(ts, core.FitOptions{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := model.Generate(context.Background(), core.GenSpec{Workload: "terasort", Workers: 16, Jobs: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recs, _, err := core.ReplayWith(sched, core.ClusterSpec{Topology: "fattree", FatTreeK: 4, Seed: 3}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("no flows replayed")
		}
	}
}

// ReplayFatTreeTelemetry is ReplayFatTree with a live telemetry sink
// attached: every counter, gauge and span hook fires. Comparing its
// ns/op against ReplayFatTree in BENCH_netsim.json bounds the
// instrumentation overhead (budget: ≤5%).
func ReplayFatTreeTelemetry(b *testing.B) {
	ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 16, Seed: 6},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: 512 << 20}}, core.CaptureOpts{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.FitWith(ts, core.FitOptions{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := model.Generate(context.Background(), core.GenSpec{Workload: "terasort", Workers: 16, Jobs: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	tel := telemetry.New()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recs, _, err := core.ReplayWith(sched, core.ClusterSpec{Topology: "fattree", FatTreeK: 4, Seed: 3}, tel)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("no flows replayed")
		}
	}
}

// CaptureTerasort measures the full cluster-simulation capture path (the
// toolchain's stage 1) for a 256 MiB terasort.
func CaptureTerasort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 16, Seed: int64(i + 1)},
			[]workload.RunSpec{{Profile: "terasort", InputBytes: 256 << 20}}, core.CaptureOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ts.Runs) != 1 {
			b.Fatal("lost the run")
		}
	}
}

// CaptureMultiPodSharded measures the multi-pod capture path end to end:
// a 4-pod × 16-worker federation on the auto shard layout, one terasort
// per pod plus the ring of cross-pod distcp copies. This is the gated
// guard on the sharded scheduler's capture-path overhead (windows,
// barriers, inter-pod fabric, merge).
func CaptureMultiPodSharded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runs := make([]workload.RunSpec, 4)
		for p := range runs {
			runs[p] = workload.RunSpec{Profile: "terasort", InputBytes: 128 << 20}
		}
		ts, _, err := core.CaptureWith(core.ClusterSpec{
			Workers: 16, Pods: 4, Shards: -1, Seed: int64(i + 1),
		}, runs, core.CaptureOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ts.Runs) != 4 {
			b.Fatal("lost a run")
		}
	}
}

// CaptureTerasortTCP is CaptureTerasort with the TCP transport selected:
// the full cluster-simulation capture with every shuffle and HDFS flow
// paced by the window state machine instead of the fluid allocator.
func CaptureTerasortTCP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 16, Seed: int64(i + 1), Transport: "tcp"},
			[]workload.RunSpec{{Profile: "terasort", InputBytes: 256 << 20}}, core.CaptureOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ts.Runs) != 1 {
			b.Fatal("lost the run")
		}
	}
}
