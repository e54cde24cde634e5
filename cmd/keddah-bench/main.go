// Command keddah-bench reproduces the paper's evaluation tables and
// figures. Each experiment (E1–E18) and ablation (A1–A4) prints the
// series/rows the corresponding paper artefact reports.
//
// Usage:
//
//	keddah-bench -list
//	keddah-bench -exp E1            # one experiment at full scale
//	keddah-bench -exp all -scale 0.25
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"keddah/internal/benchcases"
	"keddah/internal/experiments"
	"keddah/internal/telemetry"
)

// gatedBenchmarks are the cases the CI regression gate enforces: the
// netsim hot path, the replay pipeline with and without telemetry, the
// modelling stage (fit + dataset classification), whose sort-once
// sample pipeline this gate keeps honest, and the multi-pod sharded
// capture, so the window scheduler's capture-path overhead stays within
// its budget. The TCP-transport variants are gated too, so per-flow
// window bookkeeping stays within its budget.
// CaptureTerasort/CaptureTerasortTCP are reported but not gated (their
// ns/op is dominated by one-off model fitting and too noisy for a 15%
// bound); NetsimFanInSharded is reported for the window-vs-RunAll
// comparison but gated through CaptureMultiPodSharded, which covers the
// same scheduler on the path users run. GenerateSchedule and
// EncodeSchedule are reported but not gated yet: repeated single runs of
// each spread wider than the 15% bound, so they wait for a gate on the
// median of several runs.
var gatedBenchmarks = []string{
	"NetsimFanIn",
	"NetsimFanInTCP",
	"ReplayFatTree",
	"ReplayFatTreeTelemetry",
	"CaptureMultiPodSharded",
	"FitTerasort",
	"ClassifyDataset",
}

// writeTableCSV dumps one experiment table as <dir>/<id>.csv for plotting.
func writeTableCSV(dir string, t experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, strings.ToLower(t.ID)+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// runBench executes the shared benchmark cases once and serves every
// bench flag from that single run: -benchjson writes the machine-readable
// report, -benchbaseline gates ns/op and allocs/op against a committed
// baseline, and -benchdiff records the comparison (the CI artifact).
func runBench(jsonPath, baselinePath, diffPath string, stderr io.Writer) error {
	report, err := benchcases.RunReport(stderr)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := report.WriteFile(jsonPath); err != nil {
			return err
		}
	}
	if baselinePath == "" {
		return nil
	}
	baseline, err := benchcases.LoadReport(baselinePath)
	if err != nil {
		return err
	}
	diffs, gateErr := benchcases.Gate(baseline, report, gatedBenchmarks, 0.15, 0.10)
	for _, d := range diffs {
		verdict := "ok"
		if d.Regressed || d.AllocRegressed {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(stderr, "gate %-24s %9.0f -> %9.0f ns/op (%.2fx)  %6d -> %6d allocs/op (%.2fx) %s\n",
			d.Name, d.BaselineNs, d.CurrentNs, d.Ratio,
			d.BaselineAllocs, d.CurrentAllocs, d.AllocRatio, verdict)
	}
	if diffPath != "" {
		if err := benchcases.WriteDiffs(diffPath, diffs); err != nil {
			return err
		}
	}
	return gateErr
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "keddah-bench:", err)
		os.Exit(1)
	}
}

// run is the testable command body: parse args, then run the bench
// suite or the experiments, printing tables to stdout and progress to
// stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("keddah-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment id (E1..E18, A1..A4) or 'all'")
		scale     = fs.Float64("scale", 1, "input-size multiplier (1 = paper scale)")
		seed      = fs.Int64("seed", 1, "simulation seed")
		list      = fs.Bool("list", false, "list experiments and exit")
		csvDir    = fs.String("csv", "", "also write each table as CSV into this directory")
		workers   = fs.Int("parallel", 0, "experiment worker count (0 = GOMAXPROCS, 1 = serial)")
		benchJSON = fs.String("benchjson", "", "run the netsim/replay micro-benchmarks and write results as JSON to this path, then exit")
		benchBase = fs.String("benchbaseline", "", "compare the micro-benchmarks against this committed baseline JSON and fail on >15% ns/op or >10% allocs/op regression, then exit")
		benchDiff = fs.String("benchdiff", "", "with -benchbaseline, write the per-benchmark comparison as JSON to this path")
		strict    = fs.Bool("strict-checks", false, "run every capture with the invariants layer enabled (read-only cross-layer checks; identical results, more wall time)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
		memProf   = fs.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof format)")
	)
	var tf telemetry.Flags
	tf.Register(fs)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	// The link timeline has no session column, so the suite's many
	// captures and replays would interleave in one unreadable file.
	if tf.LinksOut != "" {
		return fmt.Errorf("-links-out samples a single session; the suite runs many, so use keddah-capture, the single-session command")
	}

	// Profiling brackets whatever mode runs below — experiments or the
	// bench suite — so allocation hotspots in either are attributable.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			// Flush dead objects first so the profile shows live retained
			// memory, not garbage awaiting collection.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "keddah-bench: heap profile:", err)
			}
			f.Close()
		}()
	}

	if *benchJSON != "" || *benchBase != "" {
		return runBench(*benchJSON, *benchBase, *benchDiff, stderr)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-4s %s\n", id, experiments.Describe(id))
		}
		return nil
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = []string{*exp}
	}
	tel := tf.Telemetry()
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Telemetry: tel, StrictChecks: *strict}
	start := time.Now()
	results := experiments.RunAll(ids, cfg, *workers)
	// Results come back in id order whatever the completion order, so the
	// report reads identically to a serial run.
	for _, res := range results {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.ID, res.Err)
		}
		for _, t := range res.Tables {
			if err := t.Fprint(stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeTableCSV(*csvDir, t); err != nil {
					return fmt.Errorf("%s csv: %w", t.ID, err)
				}
			}
		}
		fmt.Fprintf(stderr, "%s done in %.1fs\n", res.ID, res.Elapsed.Seconds())
	}
	fmt.Fprintf(stderr, "suite done in %.1fs\n", time.Since(start).Seconds())
	return tf.Emit(tel, stdout)
}
