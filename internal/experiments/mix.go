package experiments

import (
	"context"
	"fmt"

	"keddah/internal/core"
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
	_, model, err := fitted(cfg, []string{"terasort", "wordcount", "grep"}, 3)
	if err != nil {
		return nil, err
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

	// The 4 jobs/min schedule is also the one replayed across fabrics.
	var replayed []core.SynthFlow
	for _, rate := range []float64{1, 2, 4, 8} {
		sched, err := model.GenerateMix(context.Background(), core.MixSpec{
			Weights:       map[string]float64{"terasort": 6, "wordcount": 3, "grep": 1},
			JobsPerMinute: rate,
			WindowSecs:    300,
			Workers:       16,
			Seed:          cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("mix rate %.0f: %w", rate, err)
		}
		if rate == 4 {
			replayed = sched
		}
		sum := core.SummarizeMix(sched)
		arrivals := 0
		for _, n := range sum.Arrivals {
			arrivals += n
		}
		var totalBytes int64
		for _, b := range sum.Bytes {
			totalBytes += b
		}
		mixTable.AddRow(f2(rate), itoa(arrivals), itoa(sum.Flows),
			f2(float64(totalBytes)/(1<<30)), f2(sum.SpanSecs))
	}

	err = replayOn(cfg, &replayTable, replayed, []fabric{
		{"star 1G", core.ClusterSpec{Topology: "star", Workers: 16, Seed: cfg.Seed}},
		{"2 racks, 4G uplink", multirack(cfg, 4)},
		{"2 racks, 1G uplink", multirack(cfg, 1)},
	}, flowTimes)
	return tables(err, mixTable, replayTable)
}
