package experiments

import (
	"context"
	"fmt"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
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
	ts, err := corpus(cfg, []string{"terasort"}, 3)
	if err != nil {
		return nil, err
	}
	model, err := core.FitWith(ts, core.FitOptions{}, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
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
	fabrics := []struct {
		name string
		spec core.ClusterSpec
	}{
		{"star 1G", core.ClusterSpec{Topology: "star", Workers: 16, Seed: cfg.Seed}},
		{"2 racks, 10G uplink", core.ClusterSpec{Topology: "multirack", Workers: 16, Racks: 2, UplinkGbps: 10, Seed: cfg.Seed}},
		{"2 racks, 4G uplink", core.ClusterSpec{Topology: "multirack", Workers: 16, Racks: 2, UplinkGbps: 4, Seed: cfg.Seed}},
		{"2 racks, 1G uplink", core.ClusterSpec{Topology: "multirack", Workers: 16, Racks: 2, UplinkGbps: 1, Seed: cfg.Seed}},
		{"fat-tree k=4", core.ClusterSpec{Topology: "fattree", FatTreeK: 4, Seed: cfg.Seed}},
	}
	for _, f := range fabrics {
		recs, _, err := core.ReplayWith(sched, f.spec, cfg.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("replay on %s: %w", f.name, err)
		}
		t.AddRow(f.name,
			f2(dataMakespan(recs)),
			f3(meanDuration(recs, flows.PhaseShuffle)),
			f3(p99Duration(recs, flows.PhaseShuffle)),
			f3(meanDuration(recs, flows.PhaseHDFSRead, flows.PhaseHDFSWrite)),
		)
	}
	return []Table{t}, nil
}

// dataMakespan spans the first data-flow start to the last data-flow end
// in seconds, ignoring the long control-flow tail.
func dataMakespan(recs []pcap.FlowRecord) float64 {
	ds := flows.NewDataset(recs).Filter(func(_ pcap.FlowRecord, p flows.Phase) bool {
		return p == flows.PhaseShuffle || p == flows.PhaseHDFSRead || p == flows.PhaseHDFSWrite
	})
	first, last := ds.Span()
	return float64(last-first) / 1e9
}

// meanDuration averages flow durations (seconds) over the given phases.
func meanDuration(recs []pcap.FlowRecord, phases ...flows.Phase) float64 {
	ds := flows.NewDataset(recs)
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
func p99Duration(recs []pcap.FlowRecord, ph flows.Phase) float64 {
	s := flows.NewDataset(recs).DurationSample(ph)
	if s.Len() == 0 {
		return 0 // no flows in this phase
	}
	return s.Quantile(0.99)
}
