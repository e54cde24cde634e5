package experiments

import (
	"fmt"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/stats"
	"keddah/internal/workload"
)

func init() {
	register("A1", "ablation: delay scheduling (data locality) on vs off", runA1)
	register("A2", "ablation: max-min fair sharing vs naive equal split", runA2)
	register("A3", "ablation: full distribution library vs exponential-only", runA3)
}

// runA1 quantifies why the simulator implements delay scheduling: without
// it, map inputs cross the network and HDFS-read traffic balloons — the
// design choice DESIGN.md calls out.
func runA1(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "A1",
		Title: "Delay scheduling ablation (terasort, 2 racks, 4G uplink)",
		Headers: []string{"locality wait", "local maps %", "remote read MB",
			"hdfs_read MB", "duration s"},
	}
	type mode struct {
		name   string
		waitNs int64
	}
	err := sweep(cfg, &t, multirack(cfg, 4),
		workload.RunSpec{Profile: "terasort", InputBytes: cfg.gb(4)}, []mode{{"3s (default)", 0}, {"disabled", 1}},
		func(m mode, s *core.ClusterSpec, _ *workload.RunSpec) { s.LocalityWaitNs = m.waitNs },
		func(m mode, r *core.Run, round mapreduce.Result) []string {
			ds := r.Dataset()
			// Remote reads show up as non-loopback hdfs_read flows between
			// distinct hosts; loopback flows have src == dst addresses.
			var remote int64
			for _, rec := range ds.ByPhase(flows.PhaseHDFSRead).Records {
				if rec.Key.Src != rec.Key.Dst {
					remote += rec.Bytes
				}
			}
			localPct := 0.0
			if round.Maps > 0 {
				localPct = 100 * float64(round.LocalMaps) / float64(round.Maps)
			}
			return []string{m.name, f2(localPct), mb(remote),
				mb(ds.Volume(flows.PhaseHDFSRead)), f2(r.DurationSeconds())}
		})
	return tables(err, t)
}

// runA2 quantifies the bandwidth-sharing model: naive equal split
// mis-predicts transfer times on oversubscribed fabrics because it
// strands bandwidth freed by flows bottlenecked elsewhere.
func runA2(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "A2",
		Title: "Bandwidth sharing ablation (terasort, 2 racks, 2G uplink)",
		Headers: []string{"allocator", "duration s", "mean shuffle flow s",
			"shuffle MB"},
	}
	err := sweep(cfg, &t, multirack(cfg, 2),
		workload.RunSpec{Profile: "terasort", InputBytes: cfg.gb(4)}, []string{"maxmin", "equalsplit"},
		func(alloc string, s *core.ClusterSpec, _ *workload.RunSpec) { s.Allocator = alloc },
		func(alloc string, r *core.Run, _ mapreduce.Result) []string {
			ds := r.Dataset()
			return []string{alloc, f2(r.DurationSeconds()),
				f3(meanDuration(ds, flows.PhaseShuffle)), mb(ds.Volume(flows.PhaseShuffle))}
		})
	return tables(err, t)
}

// runA3 quantifies the distribution library: restricting the candidate
// set to exponential-only degrades the size-law fit (higher KS), which is
// why Keddah searches a family library.
func runA3(cfg Config) ([]Table, error) {
	ts, full, err := fitted(cfg, []string{"terasort", "wordcount"}, 5)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "A3",
		Title: "Distribution library ablation: size-law KS by candidate set",
		Headers: []string{"workload", "phase", "full library KS", "full family",
			"exp-only KS"},
	}
	expOnly, err := core.FitWith(ts, core.FitOptions{Candidates: []stats.Family{stats.FamilyExponential}}, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("A3 exp-only fit: %w", err)
	}
	for _, name := range full.WorkloadNames() {
		for _, ph := range flows.AllPhases {
			fp, ok1 := full.Jobs[name].Phases[ph]
			ep, ok2 := expOnly.Jobs[name].Phases[ph]
			if !ok1 || !ok2 {
				continue
			}
			t.AddRow(name, string(ph), f3(fp.SizeGoF.KS), string(fp.Size.Family),
				f3(ep.SizeGoF.KS))
		}
	}
	return []Table{t}, nil
}
