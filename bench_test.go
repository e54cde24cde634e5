// Bench targets for every reproduced table/figure (E1–E15) and ablation
// (A1–A3): each BenchmarkExp* executes the corresponding experiment
// pipeline end to end at reduced scale (Scale=1/32 ⇒ megabyte-sized
// inputs; the flow structure is identical, only byte counts shrink).
// Regenerate the full paper-scale tables with:
//
//	go run ./cmd/keddah-bench -exp all
//
// The Benchmark{Netsim,Stats,Pcap,…} targets below measure the toolchain
// stages themselves (experiment E10's micro view).
package keddah_test

import (
	"bytes"
	"testing"

	"keddah/internal/benchcases"
	"keddah/internal/experiments"
	"keddah/internal/pcap"
	"keddah/internal/stats"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Scale: 1.0 / 32, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
}

func BenchmarkExpE1VolumeVsInput(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkExpE2FlowCounts(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkExpE3SizeCDFs(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkExpE4ReplicationSweep(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkExpE5BlockSizeSweep(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkExpE6ReducerSweep(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkExpE7ModelFit(b *testing.B)           { benchExperiment(b, "E7") }
func BenchmarkExpE8Validation(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkExpE9FabricReplay(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkExpE10ToolchainOverhead(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkExpE11FailureTraffic(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkExpE12MultiTenantMix(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkExpE13Coflows(b *testing.B)           { benchExperiment(b, "E13") }
func BenchmarkExpE14Utilization(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkExpE15ScalingValidation(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkAblationA4Sampling(b *testing.B)      { benchExperiment(b, "A4") }
func BenchmarkAblationA1Locality(b *testing.B)      { benchExperiment(b, "A1") }
func BenchmarkAblationA2FairSharing(b *testing.B)   { benchExperiment(b, "A2") }
func BenchmarkAblationA3FamilyLibrary(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkCaptureTerasort measures the full cluster-simulation capture
// path (the toolchain's stage 1) for a 256 MiB terasort. The body lives
// in internal/benchcases so cmd/keddah-bench -benchjson measures the
// identical workload.
func BenchmarkCaptureTerasort(b *testing.B) { benchcases.CaptureTerasort(b) }

// BenchmarkCaptureTerasortTCP is the same capture under the flow-level
// TCP transport (body shared via internal/benchcases).
func BenchmarkCaptureTerasortTCP(b *testing.B) { benchcases.CaptureTerasortTCP(b) }

// BenchmarkNetsimFanIn measures flow-level simulation throughput: 512
// flows converging on 16 hosts with max-min reallocation at every
// arrival and departure (body shared via internal/benchcases).
func BenchmarkNetsimFanIn(b *testing.B) { benchcases.NetsimFanIn(b) }

// BenchmarkNetsimFanInTCP is the same fan-in paced by the TCP window
// state machine (body shared via internal/benchcases).
func BenchmarkNetsimFanInTCP(b *testing.B) { benchcases.NetsimFanInTCP(b) }

// BenchmarkFitSelection measures distribution model selection over a
// 100k-sample flow-size population (E10's fitting-cost claim).
func BenchmarkFitSelection(b *testing.B) {
	rng := stats.NewRNG(1)
	lgn, err := stats.NewLogNormal(17, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = lgn.Sample(rng)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := stats.NewSample(xs).SelectBest(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKSTwoSample measures the comparator ValidateWith calls,
// KSStatistic2Sorted, on 10k-sample pairs sorted before the timer starts.
func BenchmarkKSTwoSample(b *testing.B) {
	rng := stats.NewRNG(2)
	mk := func() []float64 {
		out := make([]float64, 10_000)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return stats.NewSampleOwned(out).Values()
	}
	x, y := mk(), mk()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ksSink = stats.KSStatistic2Sorted(x, y)
	}
}

// ksSink keeps BenchmarkKSTwoSample's call from being optimised away.
var ksSink float64

// BenchmarkTraceRoundTrip measures packet-trace IO (write + read back)
// for 100k records.
func BenchmarkTraceRoundTrip(b *testing.B) {
	pkt := pcap.Packet{TsNs: 1, Src: pcap.HostAddr(1), Dst: pcap.HostAddr(2),
		SrcPort: 1000, DstPort: 13562, Len: 1448, Proto: pcap.ProtoTCP, Flags: pcap.FlagACK}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := pcap.NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100_000; j++ {
			if err := w.WritePacket(pkt); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		r, err := pcap.NewReader(&buf)
		if err != nil {
			b.Fatal(err)
		}
		got, err := r.ReadAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 100_000 {
			b.Fatal("lost packets")
		}
	}
}

// BenchmarkGenerateSchedule measures synthetic-traffic generation from a
// fitted model (stage 3), amortising the one-off capture+fit (body shared
// via internal/benchcases).
func BenchmarkGenerateSchedule(b *testing.B) { benchcases.GenerateSchedule(b) }

// BenchmarkGenerateStream measures the same schedule streamed through
// GenerateChunks (body shared via internal/benchcases).
func BenchmarkGenerateStream(b *testing.B) { benchcases.GenerateStream(b) }

// BenchmarkEncodeSchedule measures the csv, jsonl and ns3 export of a
// fixed 100k-flow schedule (body shared via internal/benchcases).
func BenchmarkEncodeSchedule(b *testing.B) { benchcases.EncodeSchedule(b) }

// BenchmarkFitTerasort measures the full modelling stage (stage 2) over
// a two-run terasort corpus: pooling, per-phase model selection across
// the candidate families, and goodness-of-fit evaluation (body shared
// via internal/benchcases so the CI gate measures the same workload).
func BenchmarkFitTerasort(b *testing.B) { benchcases.FitTerasort(b) }

// BenchmarkClassifyDataset measures dataset construction plus the
// per-phase series extraction the fit stage leans on (body shared via
// internal/benchcases).
func BenchmarkClassifyDataset(b *testing.B) { benchcases.ClassifyDataset(b) }

// BenchmarkTraceSetJSON measures writing a 16-worker capture's trace-set
// JSON and reading it back.
func BenchmarkTraceSetJSON(b *testing.B) { benchcases.TraceSetJSON(b) }

// BenchmarkReplayFatTree measures schedule replay on a k=4 fat-tree
// (stage 4; body shared via internal/benchcases).
func BenchmarkReplayFatTree(b *testing.B) { benchcases.ReplayFatTree(b) }

// BenchmarkReplayFatTreeTelemetry is BenchmarkReplayFatTree with a live
// telemetry sink attached; the ns/op delta against the bare benchmark
// bounds the instrumentation overhead (body shared via
// internal/benchcases).
func BenchmarkReplayFatTreeTelemetry(b *testing.B) { benchcases.ReplayFatTreeTelemetry(b) }
