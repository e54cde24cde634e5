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
	register("E11", "extension: traffic under worker failure", runE11)
}

// runE11 is the failure extension: the same terasort run captured on a
// healthy cluster and on one that loses a worker mid-job. Expected
// shape: the job still completes; a new traffic component appears
// (block-sized DataNode→DataNode re-replication copies, classified as
// HDFS write); lost task attempts re-execute and stretch the job.
func runE11(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E11",
		Title: "Traffic under worker failure (terasort, 16 workers)",
		Note:  "failure at 50% of the healthy run's job window; detection delay 5s",
		Headers: []string{"scenario", "duration s", "re-replication MB",
			"re-repl blocks", "lost containers", "reexec maps", "reexec reducers",
			"hdfs_write MB", "shuffle MB"},
	}
	spec := core.ClusterSpec{Workers: 16, Seed: cfg.Seed}
	runSpec := []workload.RunSpec{{Profile: "terasort", InputBytes: cfg.gb(4)}}

	// Healthy baseline (also calibrates the failure instant).
	ts0, base, err := cfg.healthy(spec, runSpec)
	if err != nil {
		return nil, fmt.Errorf("E11 %w", err)
	}
	addE11Row(&t, "healthy", ts0, base.round)

	// Fail mid-job: halfway between the healthy run's submission and
	// completion (runs share a seed, so timelines align until the
	// failure).
	failAt := int64(base.round.Submitted) + int64(base.round.Duration())/2
	for _, victim := range []int{3, 7} {
		ts, res, err := cfg.capture(spec, runSpec, core.CaptureOpts{
			Failures: []core.FailureSpec{{WorkerIndex: victim, AtNs: failAt}},
		})
		if err != nil {
			return nil, fmt.Errorf("E11 failure run: %w", err)
		}
		addE11Row(&t, fmt.Sprintf("fail worker %d", victim), ts, res[0].Rounds[0])
	}
	return []Table{t}, nil
}

func addE11Row(t *Table, name string, ts *core.TraceSet, round mapreduce.Result) {
	ds := ts.Runs[0].Dataset()
	var reReplMB float64
	for _, r := range ts.Background {
		if r.Label == "hdfs/reReplication" {
			reReplMB += float64(r.Bytes) / (1 << 20)
		}
	}
	t.AddRow(name,
		f2(float64(round.Duration())/1e9),
		f2(reReplMB),
		itoa(int(ts.Stats.ReReplicatedBlocks)),
		itoa(int(ts.Stats.LostContainers)),
		itoa(round.ReexecutedMaps),
		itoa(round.ReexecutedReducers),
		mb(ds.Volume(flows.PhaseHDFSWrite)),
		mb(ds.Volume(flows.PhaseShuffle)),
	)
}

// baseline is the healthy capture a fault experiment measures against:
// its job's only round, that round's duration in seconds and its
// shuffle flow sizes, sorted once for every row's KS column.
type baseline struct {
	round mapreduce.Result
	secs  float64
	sizes *stats.Sample
}

// healthy captures spec and runs without faults and returns the capture
// with its baseline.
func (c Config) healthy(spec core.ClusterSpec, runs []workload.RunSpec) (*core.TraceSet, baseline, error) {
	ts, res, err := c.capture(spec, runs, core.CaptureOpts{})
	if err != nil {
		return nil, baseline{}, fmt.Errorf("healthy baseline: %w", err)
	}
	round := res[0].Rounds[0]
	return ts, baseline{round, float64(round.Duration()) / 1e9, ts.Runs[0].Dataset().SizeSample(flows.PhaseShuffle)}, nil
}

// faultWindow spans 10% to 70% of the healthy job's window, so every
// fault schedule drawn inside it hits the job mid-flight (runs share a
// seed, so timelines align until the first fault).
func (b baseline) faultWindow() (start, end int64) {
	sub, d := int64(b.round.Submitted), int64(b.round.Duration())
	return sub + d/10, sub + d*7/10
}

// shuffleKS is the two-sample KS distance between ds's shuffle flow
// sizes and the healthy ones, 0 when either side has none (and so 0 for
// the healthy capture itself).
func (b baseline) shuffleKS(ds *flows.Dataset) float64 {
	sizes := ds.SizeSample(flows.PhaseShuffle)
	if sizes.Len() == 0 || b.sizes.Len() == 0 {
		return 0
	}
	return stats.KSStatistic2Sorted(b.sizes.Values(), sizes.Values())
}
