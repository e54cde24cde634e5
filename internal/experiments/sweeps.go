package experiments

import (
	"fmt"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/workload"
)

func init() {
	register("E4", "HDFS replication factor sweep (terasort)", runE4)
	register("E5", "HDFS block size sweep (terasort)", runE5)
	register("E6", "reducer count sweep (sort): shuffle shape and job time", runE6)
}

// sweep captures one single-run session per axis value and adds one row
// per value to t: vary sets the value on copies of spec and run, and row
// reads the capture's run and its first round.
func sweep[V any](cfg Config, t *Table, spec core.ClusterSpec, run workload.RunSpec, values []V,
	vary func(V, *core.ClusterSpec, *workload.RunSpec), row func(V, *core.Run, mapreduce.Result) []string) error {
	for _, v := range values {
		s, r := spec, run
		vary(v, &s, &r)
		ts, res, err := cfg.capture(s, []workload.RunSpec{r}, core.CaptureOpts{})
		if err != nil {
			return fmt.Errorf("%s capture at %v: %w", t.ID, v, err)
		}
		t.AddRow(row(v, ts.Runs[0], res[0].Rounds[0])...)
	}
	return nil
}

// meanMB is the mean flow size in megabytes, 0 when there are no flows.
func meanMB(bytes int64, n int) string {
	if n == 0 {
		return f2(0)
	}
	return f2(float64(bytes) / float64(n) / (1 << 20))
}

// runE4 reproduces the replication sweep: HDFS-write volume scales with
// the replication factor while reads and shuffle stay constant.
func runE4(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E4",
		Title: "Effect of dfs.replication on traffic (terasort)",
		Note:  "ingest + job output both replicate; read and shuffle volumes must not move",
		Headers: []string{"replication", "hdfs_write MB", "hdfs_read MB",
			"shuffle MB", "write flows", "duration s"},
	}
	err := sweep(cfg, &t, core.ClusterSpec{Workers: 16, Seed: cfg.Seed},
		workload.RunSpec{Profile: "sort", InputBytes: cfg.gb(4), Reducers: 8}, []int{1, 2, 3, 4},
		func(repl int, s *core.ClusterSpec, _ *workload.RunSpec) { s.Replication = repl },
		func(repl int, r *core.Run, _ mapreduce.Result) []string {
			ds := r.Dataset()
			return []string{itoa(repl), mb(ds.Volume(flows.PhaseHDFSWrite)), mb(ds.Volume(flows.PhaseHDFSRead)),
				mb(ds.Volume(flows.PhaseShuffle)), itoa(ds.Count(flows.PhaseHDFSWrite)),
				f2(r.DurationSeconds())}
		})
	return tables(err, t)
}

// runE5 reproduces the block-size sweep: flow count ∝ 1/blocksize,
// per-flow size ∝ blocksize, total volume ~constant.
func runE5(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E5",
		Title: "Effect of dfs.blocksize on traffic (terasort)",
		Note:  "smaller blocks = more, smaller flows; total volume steady",
		Headers: []string{"block MB", "maps", "hdfs flows", "mean hdfs flow MB",
			"total MB", "duration s"},
	}
	input := cfg.gb(4)
	err := sweep(cfg, &t, core.ClusterSpec{Workers: 16, Seed: cfg.Seed},
		workload.RunSpec{Profile: "terasort", InputBytes: input, Reducers: 8}, []int64{64, 128, 256, 512},
		func(blockMB int64, s *core.ClusterSpec, _ *workload.RunSpec) { s.BlockSize = min(blockMB<<20, input) },
		func(blockMB int64, r *core.Run, _ mapreduce.Result) []string {
			ds := r.Dataset()
			hdfsFlows := ds.Count(flows.PhaseHDFSRead) + ds.Count(flows.PhaseHDFSWrite)
			hdfsBytes := ds.Volume(flows.PhaseHDFSRead) + ds.Volume(flows.PhaseHDFSWrite)
			return []string{itoa(int(blockMB)), itoa(r.Maps), itoa(hdfsFlows), meanMB(hdfsBytes, hdfsFlows),
				mb(ds.Volume("")), f2(r.DurationSeconds())}
		})
	return tables(err, t)
}

// runE6 reproduces the reducer sweep: shuffle flow count grows with
// reducers, per-flow size shrinks, and completion time is U-shaped
// (too few reducers serialise the reduce stage; too many pay overheads).
func runE6(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E6",
		Title: "Effect of reducer count on the shuffle (sort)",
		Headers: []string{"reducers", "shuffle flows", "mean shuffle flow MB",
			"shuffle MB", "duration s"},
	}
	// 16 workers × 4 slots = 64 slots: 128/256 reducers need multiple
	// waves, exposing the per-task overhead that turns the curve back up.
	err := sweep(cfg, &t, core.ClusterSpec{Workers: 16, Seed: cfg.Seed},
		workload.RunSpec{Profile: "sort", InputBytes: cfg.gb(4)}, []int{2, 4, 8, 16, 32, 64, 128, 256},
		setReducers,
		func(_ int, r *core.Run, _ mapreduce.Result) []string {
			ds := r.Dataset()
			n := ds.Count(flows.PhaseShuffle)
			return []string{itoa(r.Reducers), itoa(n), meanMB(ds.Volume(flows.PhaseShuffle), n),
				mb(ds.Volume(flows.PhaseShuffle)), f2(r.DurationSeconds())}
		})
	return tables(err, t)
}

// setReducers is the vary step of the reducer-count sweeps.
func setReducers(n int, _ *core.ClusterSpec, r *workload.RunSpec) { r.Reducers = n }
