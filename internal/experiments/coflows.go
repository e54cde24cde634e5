package experiments

import (
	"fmt"

	"keddah/internal/coflow"
)

func init() {
	register("E13", "extension: coflow characteristics of Hadoop shuffles", runE13)
}

// runE13 characterises each workload's shuffle stage as a coflow — the
// structure downstream coflow-scheduling research consumes. Expected
// shape: width = maps × reducers; per-workload sizes spanning orders of
// magnitude (KB KMeans model updates to multi-GB sorts); moderate skew
// from partition imbalance.
func runE13(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E13",
		Title: "Coflow characteristics per workload (5 runs each)",
		Note:  "one coflow per job round = its shuffle stage",
		Headers: []string{"workload", "coflows", "median width", "median MB",
			"p90 MB", "median skew", "median CCT s", "bottleneck share"},
	}
	// Shuffle-bearing workloads only (scan is map-only).
	names := []string{"bayes", "grep", "join", "kmeans", "pagerank", "sort", "terasort", "wordcount"}
	ts, err := corpus(cfg, names, 5)
	if err != nil {
		return nil, err
	}
	byWorkload := ts.ByWorkload()
	for _, name := range names {
		recs := records(byWorkload[name])
		cfs := coflow.FromRecords(recs)
		if len(cfs) == 0 {
			return nil, fmt.Errorf("E13: no coflows for %s", name)
		}
		pop, err := coflow.Describe(cfs)
		if err != nil {
			return nil, fmt.Errorf("E13 %s: %w", name, err)
		}
		// Bottleneck share of the first coflow (deterministic pick).
		_, share, err := coflow.BottleneckSender(cfs[0], recs)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, itoa(pop.Count),
			f2(pop.Width.P50), f2(pop.Bytes.P50/(1<<20)), f2(pop.Bytes.P90/(1<<20)),
			f2(pop.Skew.P50), f2(pop.Duration.P50), f2(share))
	}
	return []Table{t}, nil
}
