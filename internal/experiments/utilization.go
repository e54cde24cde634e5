package experiments

import (
	"context"
	"fmt"

	"keddah/internal/core"
	"keddah/internal/netsim"
	"keddah/internal/sim"
)

func init() {
	register("E14", "extension: rack-uplink utilization under mix replay", runE14)
}

// runE14 plots the capacity-planning view: replay the standard job mix
// over a two-rack fabric while probing the rack uplinks. Expected shape:
// as the uplink shrinks, mean utilization and time-at-saturation rise
// until the fabric is the bottleneck.
func runE14(cfg Config) ([]Table, error) {
	ts, err := corpus(cfg, []string{"terasort", "wordcount"}, 3)
	if err != nil {
		return nil, err
	}
	model, err := core.FitWith(ts, core.FitOptions{}, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
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
		spec := core.ClusterSpec{
			Topology: "multirack", Workers: 16, Racks: 2,
			UplinkGbps: uplink, Seed: cfg.Seed,
		}
		mean, peak, busy, makespan, err := replayWithProbe(sched, spec)
		if err != nil {
			return nil, fmt.Errorf("uplink %v: %w", uplink, err)
		}
		t.AddRow(f2(uplink), f2(mean*100), f2(peak*100), f2(busy*100), f2(makespan))
	}
	return []Table{t}, nil
}

// replayWithProbe replays a schedule while probing the fabric's rack
// uplinks (links touching the core switch), returning the uplinks'
// average mean/peak/busy utilization and the makespan in seconds.
func replayWithProbe(sched []core.SynthFlow, spec core.ClusterSpec) (mean, peak, busy, makespanSecs float64, err error) {
	topo, err := spec.BuildTopology()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{})

	// Uplinks: links whose endpoint is a switch named "core".
	var uplinks []netsim.LinkID
	for i, l := range topo.Links() {
		if topo.Name(l.To) == "core" {
			uplinks = append(uplinks, netsim.LinkID(i))
		}
	}
	if len(uplinks) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no core uplinks in topology")
	}
	probe := netsim.NewUtilizationProbe(net, uplinks, 100_000_000)

	hosts := topo.Hosts()
	master, workers := hosts[0], hosts[1:]
	resolve := func(h int) netsim.NodeID {
		if h < 0 {
			return master
		}
		return workers[h%len(workers)]
	}
	for _, sf := range sched {
		sf := sf
		if _, err := eng.At(sim.Time(sf.StartNs), func() {
			if _, err := net.StartFlow(netsim.FlowSpec{
				Src: resolve(sf.SrcHost), Dst: resolve(sf.DstHost),
				SrcPort: sf.SrcPort, DstPort: sf.DstPort,
				SizeBytes: sf.Bytes, Label: sf.Job,
			}); err != nil {
				panic(fmt.Sprintf("replay flow: %v", err))
			}
		}); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	probe.Start()
	end, err := eng.RunAll()
	if err != nil {
		return 0, 0, 0, 0, err
	}

	means := probe.MeanUtilization()
	peaks := probe.PeakUtilization()
	busys := probe.BusyFraction(0.95)
	for i := range means {
		mean += means[i]
		busy += busys[i]
		if peaks[i] > peak {
			peak = peaks[i]
		}
	}
	mean /= float64(len(means))
	busy /= float64(len(busys))
	return mean, peak, busy, float64(end) / 1e9, nil
}
