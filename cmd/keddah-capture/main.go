// Command keddah-capture runs MapReduce workloads on a simulated Hadoop
// cluster, captures every flow, and writes the measurement corpus as a
// JSON trace set (and optionally the raw packet trace).
//
// Usage:
//
//	keddah-capture -workloads terasort,wordcount -input-gb 4 -runs 3 \
//	    -workers 16 -topology star -out traces.json -pcap packets.kdh
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "keddah-capture:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloads  = flag.String("workloads", "terasort", "comma-separated workload profiles "+fmt.Sprint(workload.Names()))
		inputGB    = flag.Float64("input-gb", 4, "input size per run in GiB")
		runs       = flag.Int("runs", 3, "repetitions per workload")
		workers    = flag.Int("workers", core.DefaultWorkers, "worker host count")
		topology   = flag.String("topology", "star", "fabric: star | multirack | fattree")
		racks      = flag.Int("racks", 2, "rack count (multirack)")
		uplinkGbps = flag.Float64("uplink-gbps", 10, "rack uplink capacity (multirack)")
		fatTreeK   = flag.Int("fattree-k", 4, "fat-tree arity (fattree)")
		blockMB    = flag.Int64("block-mb", 128, "HDFS block size in MiB")
		repl       = flag.Int("replication", 3, "HDFS replication factor")
		transport  = flag.String("transport", "fluid", "network transport model: fluid | tcp")
		pods       = flag.Int("pods", 1, "federated pod count (each pod is its own cluster; runs stripe across pods)")
		shards     = flag.Int("shards", 0, "engine layout for multi-pod captures: 0 = serial, -1 = one engine per pod, 1..pods explicit (output is byte-identical at every setting)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		out        = flag.String("out", "traces.json", "trace-set output path")
		flowsCSV   = flag.String("flows-csv", "", "optional flow-records CSV output path (the shard-determinism CI job byte-diffs this)")
		pcapOut    = flag.String("pcap", "", "optional packet trace output path, streamed from the same run (single-pod only)")
		failWorker = flag.Int("fail-worker", -1, "worker index to kill mid-session (-1 = none)")
		failAt     = flag.Float64("fail-at", 30, "failure time in seconds (with -fail-worker)")
		strict     = flag.Bool("strict-checks", false, "run the capture with the invariants layer enabled (read-only cross-layer checks; identical trace, more wall time)")
	)
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	spec := core.ClusterSpec{
		Topology:    *topology,
		Workers:     *workers,
		Racks:       *racks,
		UplinkGbps:  *uplinkGbps,
		FatTreeK:    *fatTreeK,
		BlockSize:   *blockMB << 20,
		Replication: *repl,
		Transport:   *transport,
		Pods:        *pods,
		Shards:      *shards,
		Seed:        *seed,
	}
	var runSpecs []workload.RunSpec
	for _, prof := range strings.Split(*workloads, ",") {
		prof = strings.TrimSpace(prof)
		if prof == "" {
			continue
		}
		if _, err := workload.Get(prof); err != nil {
			return err
		}
		for i := 0; i < *runs; i++ {
			runSpecs = append(runSpecs, workload.RunSpec{
				Profile:    prof,
				InputBytes: int64(*inputGB * float64(1<<30)),
				JobName:    fmt.Sprintf("%s-run%d", prof, i),
				InputPath:  fmt.Sprintf("/data/%s", prof),
			})
		}
	}
	if len(runSpecs) == 0 {
		return fmt.Errorf("no workloads requested")
	}

	fmt.Fprintf(os.Stderr, "capturing %d runs on %d workers (%s)...\n", len(runSpecs), *workers, *topology)
	var opts core.CaptureOpts
	opts.StrictChecks = *strict
	if *failWorker >= 0 {
		opts.Failures = []core.FailureSpec{{WorkerIndex: *failWorker, AtNs: int64(*failAt * 1e9)}}
		fmt.Fprintf(os.Stderr, "injecting worker %d failure at %.1fs\n", *failWorker, *failAt)
	}
	tel := tf.Telemetry()
	opts.Telemetry = tel
	ts, results, err := capture(spec, runSpecs, opts, *pcapOut)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ts.WriteJSON(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if *flowsCSV != "" {
		cf, err := os.Create(*flowsCSV)
		if err != nil {
			return err
		}
		if err := core.WriteFlowCSV(cf, ts); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
	}

	// Per-run summary to stderr.
	for _, rr := range results {
		for _, round := range rr.Rounds {
			fmt.Fprintf(os.Stderr, "  %-22s in=%6.2fGB maps=%3d reds=%3d shuffle=%7.1fMB took %6.1fs\n",
				round.Name, float64(round.InputBytes)/(1<<30), round.Maps, round.Reducers,
				float64(round.ShuffleBytes)/(1<<20), float64(round.Duration())/1e9)
		}
	}
	var totalFlows int
	for _, r := range ts.Runs {
		totalFlows += len(r.Records)
	}
	ds := flows.NewDataset(ts.Background)
	fmt.Fprintf(os.Stderr, "wrote %s: %d runs, %d job flows, %d background flows\n",
		*out, len(ts.Runs), totalFlows, ds.Len())
	if ts.Stats.ReReplicatedBlocks > 0 || ts.Stats.LostContainers > 0 {
		fmt.Fprintf(os.Stderr, "failure recovery: %d blocks re-replicated (%.1f MB), %d containers lost\n",
			ts.Stats.ReReplicatedBlocks, float64(ts.Stats.ReReplicatedBytes)/(1<<20), ts.Stats.LostContainers)
	}
	return tf.Emit(tel, os.Stdout)
}

// capture runs the session. With a non-empty pcapPath it also streams
// the session's packets to that trace file as the flows finish, so the
// packet trace and the trace set are two views of one run.
func capture(spec core.ClusterSpec, runSpecs []workload.RunSpec, opts core.CaptureOpts, pcapPath string) (*core.TraceSet, []workload.RunResult, error) {
	if pcapPath == "" {
		return core.CaptureWith(spec, runSpecs, opts)
	}
	f, err := os.Create(pcapPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	w, err := pcap.NewWriter(f)
	if err != nil {
		return nil, nil, err
	}
	opts.Packets = pcap.NewStreamingCapture(w.WritePacket)
	ts, results, err := core.CaptureWith(spec, runSpecs, opts)
	if err != nil {
		os.Remove(pcapPath) // a refused or failed session leaves no partial trace
		return nil, nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, nil, fmt.Errorf("packet trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("packet trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d packet records\n", pcapPath, w.Count())
	return ts, results, nil
}
