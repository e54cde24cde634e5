package core

import "keddah/internal/workload"

// FitBulkCorpus fits the model bulk generation is measured on: the six
// paper workloads at 1 GiB each, captured on 16 workers with seed 1,
// then fitted with default options. It is the one recipe the memory
// fence on overlapping jobs and the GenerateStreamOverlap bench case
// share, so they stream from the same model.
func FitBulkCorpus() (*Model, error) {
	var runs []workload.RunSpec
	for _, p := range []string{"terasort", "sort", "wordcount", "grep", "pagerank", "kmeans"} {
		runs = append(runs, workload.RunSpec{Profile: p, InputBytes: 1 << 30})
	}
	ts, _, err := CaptureWith(ClusterSpec{Workers: 16, Seed: 1}, runs, CaptureOpts{})
	if err != nil {
		return nil, err
	}
	return FitWith(ts, FitOptions{}, nil)
}
