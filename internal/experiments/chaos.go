package experiments

import (
	"fmt"

	"keddah/internal/core"
	"keddah/internal/faults"
	"keddah/internal/flows"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/workload"
)

func init() {
	register("E16", "extension: chaos sweep — traffic under link and node faults", runE16)
}

// runE16 is the chaos extension: the same terasort run captured healthy
// and under randomly scheduled faults, swept over fault kind (link down,
// link degrade, node crash+rejoin), fault count and fabric. Expected
// shape: jobs always complete; retry/recovery traffic grows with the
// fault count; shuffle is the most fault-sensitive phase (fetch retries
// and host blacklisting); the shuffle size distribution stays close to
// the healthy capture (low KS) because faults change *when* flows run
// far more than *how much* they carry.
func runE16(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E16",
		Title: "Chaos sweep: traffic under link and node faults (terasort, 16 workers)",
		Note: "random fault schedules inside the healthy run's job window; " +
			"link faults last 3–8s, node crashes 8–15s (NM expiry 10s); " +
			"KS compares faulty vs healthy shuffle flow sizes",
		Headers: []string{"fabric", "faults", "n", "duration s", "stretch",
			"retry MB", "re-repl MB", "aborted", "shuffle MB", "shuffle KS"},
	}
	runSpec := []workload.RunSpec{{Profile: "terasort", InputBytes: cfg.gb(2)}}

	scenario := int64(0)
	for _, fabric := range []string{"star", "multirack"} {
		spec := core.ClusterSpec{Topology: fabric, Workers: 16, Seed: cfg.Seed}
		topo, err := spec.BuildTopology()
		if err != nil {
			return nil, fmt.Errorf("E16 %s topology: %w", fabric, err)
		}

		// Healthy baseline: calibrates the fault window and anchors the
		// stretch and KS columns.
		ts0, base, err := cfg.healthy(spec, runSpec)
		if err != nil {
			return nil, fmt.Errorf("E16 %s %w", fabric, err)
		}
		addE16Row(&t, fabric, "healthy", 0, ts0, base.round, base)
		winStart, winEnd := base.faultWindow()

		for _, kind := range []faults.Kind{faults.LinkDown, faults.LinkDegrade, faults.NodeCrash} {
			minDur, maxDur := int64(3_000_000_000), int64(8_000_000_000)
			if kind == faults.NodeCrash {
				// Straddle the 10s NM expiry so some crashes rejoin
				// before detection and some after.
				minDur, maxDur = 8_000_000_000, 15_000_000_000
			}
			for _, n := range []int{2, 6} {
				scenario++
				sched := faults.Random(cfg.Seed*1000+scenario, faults.RandomOpts{
					N:             n,
					Kinds:         []faults.Kind{kind},
					Links:         topo.NumLinks(),
					Workers:       16,
					WindowStartNs: winStart,
					WindowEndNs:   winEnd,
					MinDurationNs: minDur,
					MaxDurationNs: maxDur,
				})
				ts, res, err := cfg.capture(spec, runSpec, core.CaptureOpts{Faults: sched})
				if err != nil {
					return nil, fmt.Errorf("E16 %s %s n=%d: %w", fabric, kind, n, err)
				}
				addE16Row(&t, fabric, string(kind), len(sched.Faults), ts, res[0].Rounds[0], base)
			}
		}
	}
	return []Table{t}, nil
}

// addE16Row reduces one capture to a chaos-sweep table row.
func addE16Row(t *Table, fabric, scenario string, nFaults int, ts *core.TraceSet,
	round mapreduce.Result, base baseline) {
	ds := ts.Runs[0].Dataset()
	dur := float64(round.Duration()) / 1e9

	var retryBytes int64
	for _, r := range append(records(ts.Runs), ts.Background...) {
		if flows.IsRecovery(r.Label) {
			retryBytes += r.Bytes
		}
	}

	t.AddRow(fabric, scenario,
		itoa(nFaults),
		f2(dur),
		f2(dur/base.secs),
		f2(float64(retryBytes)/(1<<20)),
		f2(float64(ts.Stats.ReReplicatedBytes)/(1<<20)),
		itoa(int(ts.Stats.AbortedFlows)),
		mb(ds.Volume(flows.PhaseShuffle)),
		f3(base.shuffleKS(ds)),
	)
}
