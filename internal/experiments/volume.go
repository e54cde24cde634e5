package experiments

import (
	"fmt"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/workload"
)

func init() {
	register("E1", "per-phase traffic volume vs input size per workload", runE1)
	register("E2", "flow counts per phase vs task structure", runE2)
}

// runE1 reproduces the volume-vs-input-size figure: for every workload
// and input size, the per-phase traffic volume. Expected shape: volumes
// grow ~linearly; shuffle dominates sort/terasort, is negligible for
// grep/kmeans; HDFS write ≈ replication × output.
func runE1(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E1",
		Title: "Per-phase traffic volume vs input size",
		Note:  "16-worker star cluster, 1 Gbps access links, dfs.replication=3",
		Headers: []string{"workload", "input GB", "hdfs_read MB", "hdfs_write MB",
			"shuffle MB", "control MB", "total MB", "duration s"},
	}
	sizes := []float64{1, 2, 4, 8}
	for _, prof := range workload.Names() {
		for _, gbs := range sizes {
			input := cfg.gb(gbs)
			ts, _, err := cfg.capture(core.ClusterSpec{Workers: 16, Seed: cfg.Seed},
				[]workload.RunSpec{{Profile: prof, InputBytes: input}}, core.CaptureOpts{})
			if err != nil {
				return nil, fmt.Errorf("E1 capture %s@%s GB: %w", prof, gbLabel(input), err)
			}
			// Aggregate all rounds of the run.
			var read, write, shuffle, control, total int64
			var dur float64
			for _, r := range ts.Runs {
				ds := r.Dataset()
				read += ds.Volume(flows.PhaseHDFSRead)
				write += ds.Volume(flows.PhaseHDFSWrite)
				shuffle += ds.Volume(flows.PhaseShuffle)
				control += ds.Volume(flows.PhaseControl)
				total += ds.Volume("")
				dur += r.DurationSeconds()
			}
			t.AddRow(prof, gbLabel(input), mb(read), mb(write), mb(shuffle), mb(control), mb(total), f2(dur))
		}
	}
	return []Table{t}, nil
}

// runE2 reproduces the flow-count structure figure: shuffle flows ≈
// maps × reducers; HDFS write flows ≈ blocks × replication (+ output);
// control flows scale with duration.
func runE2(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E2",
		Title: "Flow counts vs task structure (terasort)",
		Note:  "shuffle flows = maps x reducers; job hdfs_write flows ≈ output blocks x output replication (terasort writes 1 replica)",
		Headers: []string{"reducers", "maps", "shuffle flows", "maps*reducers",
			"hdfs_write flows", "~output blocks", "control flows"},
	}
	err := sweep(cfg, &t, core.ClusterSpec{Workers: 16, Seed: cfg.Seed},
		workload.RunSpec{Profile: "terasort", InputBytes: cfg.gb(4)}, []int{4, 8, 16, 32},
		setReducers,
		func(_ int, r *core.Run, _ mapreduce.Result) []string {
			ds := r.Dataset()
			// TeraSort output ≈ input with 1-replica commit; each reducer's
			// part file rounds up to whole blocks.
			perReducer := (r.InputBytes + int64(r.Reducers) - 1) / int64(r.Reducers)
			blocksPerReducer := (perReducer + r.BlockSize - 1) / r.BlockSize
			outBlocks := int(blocksPerReducer) * r.Reducers
			return []string{
				itoa(r.Reducers), itoa(r.Maps),
				itoa(ds.Count(flows.PhaseShuffle)), itoa(r.Maps * r.Reducers),
				itoa(ds.Count(flows.PhaseHDFSWrite)), itoa(outBlocks),
				itoa(ds.Count(flows.PhaseControl)),
			}
		})
	return tables(err, t)
}
