package experiments

import (
	"fmt"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/stats"
	"keddah/internal/workload"
)

func init() {
	register("E3", "per-phase flow size CDF quantiles per workload", runE3)
}

// runE3 reproduces the flow-size CDF figure: per workload × phase, the
// quantiles of the per-flow byte distribution. Expected shape: shuffle
// sizes unimodal near map-output/reducers; HDFS flows cluster at the
// block size; control flows are fixed-size RPCs.
func runE3(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E3",
		Title: "Per-phase flow size distribution (quantiles, MB)",
		Note:  "printed quantiles trace the CDF the paper plots",
		Headers: []string{"workload", "phase", "flows", "p10", "p25", "p50",
			"p75", "p90", "p99", "mean"},
	}
	input := cfg.gb(8)
	for _, prof := range workload.Names() {
		ts, _, err := cfg.capture(core.ClusterSpec{Workers: 16, Seed: cfg.Seed},
			[]workload.RunSpec{{Profile: prof, InputBytes: input}}, core.CaptureOpts{})
		if err != nil {
			return nil, fmt.Errorf("E3 capture %s: %w", prof, err)
		}
		// Pool rounds.
		pool := map[flows.Phase][]float64{}
		for _, r := range ts.Runs {
			ds := r.Dataset()
			for _, ph := range flows.AllPhases {
				pool[ph] = append(pool[ph], ds.Sizes(ph)...)
			}
		}
		for _, ph := range flows.AllPhases {
			xs := pool[ph]
			if len(xs) == 0 {
				continue
			}
			// One Sample serves the quantiles and the summary: sorted once,
			// shared by both instead of two copy+sort passes.
			s := stats.NewSampleOwned(xs)
			q := func(p float64) string { return f2(s.Quantile(p) / (1 << 20)) }
			sum, err := s.Describe()
			if err != nil {
				return nil, fmt.Errorf("E3 %s/%s: %w", prof, ph, err)
			}
			t.AddRow(prof, string(ph), itoa(s.Len()), q(0.10), q(0.25), q(0.50),
				q(0.75), q(0.90), q(0.99), f2(sum.Mean/(1<<20)))
		}
	}
	return []Table{t}, nil
}
