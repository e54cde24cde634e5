package experiments

import (
	"context"
	"fmt"
	"sort"

	"keddah/internal/core"
	"keddah/internal/flows"
)

func init() {
	register("E12", "extension: multi-tenant job mix replayed across fabrics", runE12)
}

// runE12 is the multi-tenancy extension: a Poisson job mix generated
// from the fitted model library is replayed over fabrics of varying
// oversubscription. Expected shape: as arrival rate or oversubscription
// grows, per-flow transfer times stretch — the capacity-planning
// question a reusable traffic model exists to answer.
func runE12(cfg Config) ([]Table, error) {
	ts, err := corpus(cfg, []string{"terasort", "wordcount", "grep"}, 3)
	if err != nil {
		return nil, err
	}
	model, err := core.FitWith(ts, core.FitOptions{}, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}

	mixTable := Table{
		ID:      "E12a",
		Title:   "Poisson mix composition (60% terasort / 30% wordcount / 10% grep)",
		Headers: []string{"jobs/min", "arrivals", "flows", "total GB", "span s"},
	}
	replayTable := Table{
		ID:    "E12b",
		Title: "Mix replayed across fabrics (4 jobs/min, 5 min window)",
		Headers: []string{"fabric", "mean shuffle flow s", "p99 shuffle flow s",
			"mean hdfs flow s"},
	}

	weights := map[string]float64{"terasort": 6, "wordcount": 3, "grep": 1}
	for _, rate := range []float64{1, 2, 4, 8} {
		sched, err := model.GenerateMix(context.Background(), core.MixSpec{
			Weights:       weights,
			JobsPerMinute: rate,
			WindowSecs:    300,
			Workers:       16,
			Seed:          cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("mix rate %.0f: %w", rate, err)
		}
		sum := core.SummarizeMix(sched)
		arrivals := 0
		for _, n := range sum.Arrivals {
			arrivals += n
		}
		var totalBytes int64
		names := make([]string, 0, len(sum.Bytes))
		for n := range sum.Bytes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			totalBytes += sum.Bytes[n]
		}
		mixTable.AddRow(f2(rate), itoa(arrivals), itoa(sum.Flows),
			f2(float64(totalBytes)/(1<<30)), f2(sum.SpanSecs))
	}

	sched, err := model.GenerateMix(context.Background(), core.MixSpec{
		Weights:       weights,
		JobsPerMinute: 4,
		WindowSecs:    300,
		Workers:       16,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	fabrics := []struct {
		name string
		spec core.ClusterSpec
	}{
		{"star 1G", core.ClusterSpec{Topology: "star", Workers: 16, Seed: cfg.Seed}},
		{"2 racks, 4G uplink", core.ClusterSpec{Topology: "multirack", Workers: 16, Racks: 2, UplinkGbps: 4, Seed: cfg.Seed}},
		{"2 racks, 1G uplink", core.ClusterSpec{Topology: "multirack", Workers: 16, Racks: 2, UplinkGbps: 1, Seed: cfg.Seed}},
	}
	for _, f := range fabrics {
		recs, _, err := core.ReplayWith(sched, f.spec, cfg.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("replay mix on %s: %w", f.name, err)
		}
		replayTable.AddRow(f.name,
			f3(meanDuration(recs, flows.PhaseShuffle)),
			f3(p99Duration(recs, flows.PhaseShuffle)),
			f3(meanDuration(recs, flows.PhaseHDFSRead, flows.PhaseHDFSWrite)))
	}
	return []Table{mixTable, replayTable}, nil
}
