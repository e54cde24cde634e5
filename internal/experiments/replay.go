package experiments

import (
	"context"
	"fmt"

	"keddah/internal/core"
	"keddah/internal/flows"
)

func init() {
	register("E9", "replay fitted traffic on constrained fabrics", runE9)
}

// runE9 reproduces the "use with network simulators" result: a terasort
// traffic model is generated once and replayed over fabrics of varying
// shape and oversubscription. Expected shape: transfer times stretch as
// the uplink shrinks, with the shuffle phase the most sensitive — the
// reproducible what-if capability the toolchain exists to provide.
func runE9(cfg Config) ([]Table, error) {
	_, model, err := fitted(cfg, []string{"terasort"}, 3)
	if err != nil {
		return nil, err
	}
	// Four overlapping job instances at twice the fitted reference size:
	// the multi-tenant, scaled what-if the toolchain was built for.
	jm := model.Jobs["terasort"]
	sched, err := model.Generate(context.Background(), core.GenSpec{
		Workload:   "terasort",
		InputBytes: 2 * jm.RefInputBytes,
		Workers:    16,
		Jobs:       4,
		Stagger:    0.25,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}

	t := Table{
		ID:    "E9",
		Title: "Synthetic terasort traffic (4 overlapping jobs) on different fabrics",
		Note:  "same flow schedule; only the fabric changes; makespan covers data flows",
		Headers: []string{"fabric", "data makespan s", "mean shuffle flow s",
			"p99 shuffle flow s", "mean hdfs flow s"},
	}
	err = replayOn(cfg, &t, sched, []fabric{
		{"star 1G", core.ClusterSpec{Topology: "star", Workers: 16, Seed: cfg.Seed}},
		{"2 racks, 10G uplink", multirack(cfg, 10)},
		{"2 racks, 4G uplink", multirack(cfg, 4)},
		{"2 racks, 1G uplink", multirack(cfg, 1)},
		{"fat-tree k=4", core.ClusterSpec{Topology: "fattree", FatTreeK: 4, Seed: cfg.Seed}},
	}, func(ds *flows.Dataset) []string {
		return append([]string{f2(dataMakespan(ds))}, flowTimes(ds)...)
	})
	return tables(err, t)
}

// multirack is the suite's two-rack, 16-worker fabric with the given
// rack uplink.
func multirack(cfg Config, uplinkGbps float64) core.ClusterSpec {
	return core.ClusterSpec{Topology: "multirack", Workers: 16, Racks: 2, UplinkGbps: uplinkGbps, Seed: cfg.Seed}
}

// fabric is a named cluster a schedule is replayed on.
type fabric struct {
	name string
	spec core.ClusterSpec
}

// replayOn replays one schedule on every fabric and adds one row each to
// t: the fabric's name, then the cells the replayed flows give.
func replayOn(cfg Config, t *Table, sched []core.SynthFlow, fabrics []fabric, cells func(*flows.Dataset) []string) error {
	for _, f := range fabrics {
		recs, _, err := core.ReplayWith(sched, f.spec, cfg.Telemetry)
		if err != nil {
			return fmt.Errorf("%s replay on %s: %w", t.ID, f.name, err)
		}
		t.AddRow(append([]string{f.name}, cells(flows.NewDataset(recs))...)...)
	}
	return nil
}

// flowTimes gives a replay's mean and p99 shuffle flow durations and its
// mean HDFS flow duration, in seconds.
func flowTimes(ds *flows.Dataset) []string {
	return []string{f3(meanDuration(ds, flows.PhaseShuffle)), f3(p99Duration(ds, flows.PhaseShuffle)),
		f3(meanDuration(ds, flows.PhaseHDFSRead, flows.PhaseHDFSWrite))}
}

// dataMakespan spans the first data-flow start to the last data-flow end
// in seconds, ignoring the long control-flow tail.
func dataMakespan(ds *flows.Dataset) float64 {
	var first, last int64
	seen := false
	for _, ph := range []flows.Phase{flows.PhaseShuffle, flows.PhaseHDFSRead, flows.PhaseHDFSWrite} {
		if ds.Count(ph) == 0 {
			continue
		}
		f, l := ds.PhaseSpan(ph)
		if !seen || f < first {
			first = f
		}
		if !seen || l > last {
			last = l
		}
		seen = true
	}
	return float64(last-first) / 1e9
}

// meanDuration averages flow durations (seconds) over the given phases.
func meanDuration(ds *flows.Dataset, phases ...flows.Phase) float64 {
	var sum float64
	var n int
	for _, ph := range phases {
		for _, d := range ds.Durations(ph) {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// p99Duration returns the 99th percentile flow duration for a phase.
func p99Duration(ds *flows.Dataset, ph flows.Phase) float64 {
	s := ds.DurationSample(ph)
	if s.Len() == 0 {
		return 0 // no flows in this phase
	}
	return s.Quantile(0.99)
}
