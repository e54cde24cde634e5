package experiments

import (
	"context"
	"fmt"

	"keddah/internal/core"
	"keddah/internal/telemetry"
)

func init() {
	register("E14", "extension: rack-uplink utilization under mix replay", runE14)
}

// runE14 plots the capacity-planning view: replay the standard job mix
// over a two-rack fabric while probing the rack uplinks. Expected shape:
// as the uplink shrinks, mean utilization and time-at-saturation rise
// until the fabric is the bottleneck.
func runE14(cfg Config) ([]Table, error) {
	_, model, err := fitted(cfg, []string{"terasort", "wordcount"}, 3)
	if err != nil {
		return nil, err
	}
	sched, err := model.GenerateMix(context.Background(), core.MixSpec{
		Weights:       map[string]float64{"terasort": 2, "wordcount": 1},
		JobsPerMinute: 4,
		WindowSecs:    180,
		Workers:       16,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("mix: %w", err)
	}

	t := Table{
		ID:    "E14",
		Title: "Rack-uplink utilization under a 4 jobs/min mix (2 racks)",
		Note:  "uplink probed every 100 ms during replay; busy = utilization >= 95%",
		Headers: []string{"uplink Gbps", "mean util %", "peak util %",
			"busy time %", "replay makespan s"},
	}
	for _, uplink := range []float64{10, 4, 2, 1} {
		spec := multirack(cfg, uplink)
		tel := telemetry.New()
		tl := tel.EnableLinkTimeline()
		_, end, err := core.ReplayWith(sched, spec, tel)
		if err != nil {
			return nil, fmt.Errorf("uplink %v: %w", uplink, err)
		}
		mean, peak, busy, err := uplinkUtilization(spec, tl.Points())
		if err != nil {
			return nil, fmt.Errorf("uplink %v: %w", uplink, err)
		}
		t.AddRow(f2(uplink), f2(mean*100), f2(peak*100), f2(busy*100), f2(float64(end)/1e9))
	}
	return []Table{t}, nil
}

// uplinkUtilization reduces a replay's link timeline to its rack uplinks
// (links into the core switch): their peak utilization, and the mean
// utilization and busy fraction (samples at or above 95%) of each uplink,
// averaged over the uplinks.
func uplinkUtilization(spec core.ClusterSpec, points []telemetry.LinkPoint) (mean, peak, busy float64, err error) {
	topo, err := spec.BuildTopology()
	if err != nil {
		return 0, 0, 0, err
	}
	// Per-link sums over the samples, in sample order; n = 0 marks a link
	// that is not an uplink.
	type uplinkStats struct{ util, busy, n float64 }
	links := make([]uplinkStats, topo.NumLinks())
	uplinks := 0
	for _, p := range points {
		if topo.Name(topo.Links()[p.Link].To) != "core" {
			continue
		}
		l := &links[p.Link]
		if l.n == 0 {
			uplinks++
		}
		l.util += p.Util
		l.n++
		if p.Util >= 0.95 {
			l.busy++
		}
		peak = max(peak, p.Util)
	}
	if uplinks == 0 {
		return 0, 0, 0, fmt.Errorf("no core uplink samples in the link timeline")
	}
	for _, l := range links {
		if l.n > 0 {
			mean += l.util / l.n
			busy += l.busy / l.n
		}
	}
	return mean / float64(uplinks), peak, busy / float64(uplinks), nil
}
