package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"keddah/internal/core"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

func init() {
	register("E18", "sharded engine scaling: multi-pod capture, serial vs sharded at several GOMAXPROCS", runE18)
}

// runE18 measures the sharded engine on the capture the tentpole targets:
// a 256-worker cluster (8 pods × 32 workers) running one terasort per
// pod with ring cross-pod copies. Every row re-runs the same capture
// under a different engine layout and GOMAXPROCS, records wall time and
// scheduler counters, and byte-compares the deterministic artifacts
// (TraceSet JSON + telemetry snapshot) against the serial reference —
// the "identical" column is the determinism claim, the "speedup" column
// the performance claim.
func runE18(cfg Config) ([]Table, error) {
	const pods, workers = 8, 32
	spec := core.ClusterSpec{
		Topology: "star", Workers: workers, Pods: pods, Seed: cfg.Seed,
		// Geo-distributed pods: a 100ms inter-pod latency (WAN RTT scale)
		// keeps the conservative windows wide enough that each shard
		// processes thousands of events between barriers. With the 1ms
		// datacenter default the barrier cost dominates and parallelism
		// cannot pay for itself — that regime is measured by the windows
		// column, not hidden.
		InterPodLatencyNs: 100_000_000,
	}
	runs := make([]workload.RunSpec, pods)
	for i := range runs {
		runs[i] = workload.RunSpec{Profile: "terasort", InputBytes: cfg.gb(4)}
	}

	// The layout sweep is this experiment: every row pins its own engine
	// count.
	type layout struct {
		name   string
		shards int
		procs  int
	}
	layouts := []layout{
		{"serial", 0, 1},
		{"sharded-8", -1, 1},
		{"sharded-8", -1, 2},
		{"sharded-8", -1, 8},
	}

	type rowResult struct {
		out      string
		wallMs   float64
		critMs   float64
		windows  uint64
		boundary int64
	}
	run := func(l layout) (rowResult, error) {
		prev := runtime.GOMAXPROCS(l.procs)
		defer runtime.GOMAXPROCS(prev)
		// Fresh telemetry per row so the deterministic snapshot is
		// comparable across rows instead of accumulating.
		tel := telemetry.New()
		layoutSpec := spec
		layoutSpec.Shards = l.shards
		start := time.Now()
		ts, _, err := core.CaptureWith(layoutSpec, runs, core.CaptureOpts{
			Telemetry: tel, StrictChecks: cfg.StrictChecks,
		})
		if err != nil {
			return rowResult{}, err
		}
		res := rowResult{wallMs: float64(time.Since(start).Milliseconds())}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			return rowResult{}, err
		}
		snap, err := json.Marshal(tel.Snapshot())
		if err != nil {
			return rowResult{}, err
		}
		buf.Write(snap)
		res.out = buf.String()
		for _, c := range tel.Snapshot().Counters {
			switch c.Name {
			case "keddah_sim_shard_windows_total":
				res.windows = uint64(c.Value)
			case "keddah_sim_shard_boundary_events_total":
				res.boundary = c.Value
			}
		}
		// The critical path is wall-clock derived, so it lives only in
		// the volatile snapshot — never in the byte-compared output.
		for _, g := range tel.Reg.Snapshot(true).Gauges {
			if g.Name == "keddah_sim_shard_crit_ms" {
				res.critMs = g.Value
			}
		}
		return res, nil
	}

	t := Table{
		ID: "E18",
		Title: fmt.Sprintf("Sharded engine scaling: %d pods × %d workers (%d total), terasort per pod + ring distcp",
			pods, workers, pods*workers),
		Note: "wall speedup = serial wall / row wall (needs >= GOMAXPROCS free cores to show); " +
			"crit speedup = serial critical path / row critical path (per-window max shard busy, " +
			"the speedup a machine with one core per shard achieves); " +
			"identical = byte-equal TraceSet+telemetry vs serial",
		Headers: []string{"layout", "GOMAXPROCS", "wall ms", "wall speedup",
			"crit ms", "crit speedup", "windows", "boundary events", "identical"},
		Volatile: []string{"wall ms", "wall speedup", "crit ms", "crit speedup"},
	}

	var ref rowResult
	for i, l := range layouts {
		res, err := run(l)
		if err != nil {
			return nil, fmt.Errorf("E18 %s@%d: %w", l.name, l.procs, err)
		}
		identical := "ref"
		if i == 0 {
			ref = res
		} else if res.out == ref.out {
			identical = "yes"
		} else {
			identical = "NO"
		}
		wallSpeedup, critSpeedup := 0.0, 0.0
		if res.wallMs > 0 {
			wallSpeedup = ref.wallMs / res.wallMs
		}
		if res.critMs > 0 {
			critSpeedup = ref.critMs / res.critMs
		}
		t.AddRow(l.name, itoa(l.procs), f2(res.wallMs), f2(wallSpeedup),
			f2(res.critMs), f2(critSpeedup),
			itoa(int(res.windows)), itoa(int(res.boundary)), identical)
	}
	return []Table{t}, nil
}
