package experiments

import (
	"fmt"
	"sort"

	"keddah/internal/core"
	"keddah/internal/faults"
	"keddah/internal/flows"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/workload"
)

func init() {
	register("E17", "extension: fluid vs TCP transport — shuffle fan-in incast", runE17)
}

// runE17 is the transport extension: the same shuffle fan-in pattern run
// under the fluid (max-min water-filling) and the flow-level TCP transport.
// Expected shape: the fluid model shares the bottleneck at full utilisation
// at every fan-in, while TCP collapses once the synchronized windows
// overflow the droptail buffer — windows drop below the fast-retransmit
// threshold and senders serialize on 200 ms RTO stalls (classic incast).
// The second table replays a full terasort capture under both transports,
// healthy and under the PR 2 chaos fault schedule, to show the collapse
// carries through to job-level shuffle behaviour.
func runE17(cfg Config) ([]Table, error) {
	sweep := Table{
		ID:    "E17",
		Title: "Incast: fluid vs TCP goodput under shuffle fan-in (star, 1 Gbps, 256 KiB units)",
		Note: "synchronized senders into one reducer port; goodput = total bytes / makespan; " +
			"tcp/fluid < 1 is the incast collapse the fluid model cannot express",
		Headers: []string{"fan-in", "fluid Mbps", "tcp Mbps", "tcp/fluid",
			"fluid p99 FCT ms", "tcp p99 FCT ms", "fast rtx", "RTO fired"},
	}
	// The collapse is a property of window synchronization against a fixed
	// buffer, not of data volume, so the unit size stays fixed across
	// Config.Scale: 256 KiB is the classic incast server-request unit.
	const unit = int64(256 << 10)
	for _, fanin := range []int{2, 4, 8, 16, 32, 64} {
		fluid, err := incastRun("fluid", fanin, unit)
		if err != nil {
			return nil, fmt.Errorf("E17 fluid fan-in %d: %w", fanin, err)
		}
		tcp, err := incastRun("tcp", fanin, unit)
		if err != nil {
			return nil, fmt.Errorf("E17 tcp fan-in %d: %w", fanin, err)
		}
		sweep.AddRow(itoa(fanin),
			f2(fluid.goodputBps/1e6),
			f2(tcp.goodputBps/1e6),
			f3(tcp.goodputBps/fluid.goodputBps),
			f2(fluid.p99Ms),
			f2(tcp.p99Ms),
			itoa(int(tcp.fastRtx)),
			itoa(int(tcp.rtoFired)),
		)
	}

	capture, err := runE17Capture(cfg)
	if err != nil {
		return nil, err
	}
	return []Table{sweep, *capture}, nil
}

// incastCell summarises one fan-in run for the sweep table.
type incastCell struct {
	goodputBps float64
	p99Ms      float64
	fastRtx    uint64
	rtoFired   uint64
}

// incastRun starts fanin synchronized senders, each pushing unit bytes into
// hosts[0] of a star, and runs to completion under the given transport.
func incastRun(transport string, fanin int, unit int64) (incastCell, error) {
	topo, err := netsim.Star(fanin+1, netsim.Gbps)
	if err != nil {
		return incastCell{}, err
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{Transport: transport})
	net.Reserve(fanin)
	hosts := topo.Hosts()
	var makespan sim.Time
	fcts := make([]float64, 0, fanin)
	for i := 0; i < fanin; i++ {
		_, err := net.StartFlow(netsim.FlowSpec{
			Src: hosts[i+1], Dst: hosts[0], SrcPort: 10000 + i, DstPort: 13562, SizeBytes: unit,
			OnComplete: func(f netsim.Flow) {
				fcts = append(fcts, float64(f.End-f.Start)/1e6)
				if f.End > makespan {
					makespan = f.End
				}
			},
		})
		if err != nil {
			return incastCell{}, err
		}
	}
	if _, err := eng.RunAll(); err != nil {
		return incastCell{}, err
	}
	if got := net.Completed(); got != uint64(fanin) {
		return incastCell{}, fmt.Errorf("completed %d of %d flows", got, fanin)
	}
	sort.Float64s(fcts)
	var cell incastCell
	cell.goodputBps = float64(fanin) * float64(unit) * 8 / (float64(makespan) / 1e9)
	cell.p99Ms = pctSorted(fcts, 99)
	cell.fastRtx, cell.rtoFired = net.TCPStats()
	return cell, nil
}

// runE17Capture builds the job-level table: terasort on 16 workers under
// {fluid, tcp} x {healthy, chaos}, with one shared random fault schedule
// derived from the fluid-healthy job window (E16 idiom) so the four cells
// are directly comparable.
func runE17Capture(cfg Config) (*Table, error) {
	t := Table{
		ID:    "E17b",
		Title: "Transport under load: terasort capture, fluid vs TCP, healthy vs chaos (16 workers)",
		Note: "stretch and KS compare against the fluid healthy capture; " +
			"chaos reuses one mixed fault schedule across both transports",
		Headers: []string{"transport", "scenario", "duration s", "stretch",
			"shuffle MB", "shuffle p50 ms", "shuffle p99 ms", "size KS"},
	}
	spec := core.ClusterSpec{Topology: "star", Workers: 16, Seed: cfg.Seed}
	runSpec := []workload.RunSpec{{Profile: "terasort", InputBytes: cfg.gb(0.5)}}
	topo, err := spec.BuildTopology()
	if err != nil {
		return nil, fmt.Errorf("E17b topology: %w", err)
	}

	// Fluid healthy anchors everything: the stretch column, the KS sample
	// and the fault window for the chaos cells.
	ts0, base, err := cfg.healthy(spec, runSpec)
	if err != nil {
		return nil, fmt.Errorf("E17b fluid %w", err)
	}
	addE17Row(&t, "fluid", "healthy", ts0, base.round, base)
	winStart, winEnd := base.faultWindow()
	sched := faults.Random(cfg.Seed*1000+17, faults.RandomOpts{
		N:             6,
		Kinds:         []faults.Kind{faults.LinkDown, faults.LinkDegrade, faults.NodeCrash},
		Links:         topo.NumLinks(),
		Workers:       16,
		WindowStartNs: winStart,
		WindowEndNs:   winEnd,
		MinDurationNs: 3_000_000_000,
		MaxDurationNs: 8_000_000_000,
	})

	cells := []struct {
		transport string
		scenario  string
		faults    faults.Schedule
	}{
		{"fluid", "chaos", sched},
		{"tcp", "healthy", faults.Schedule{}},
		{"tcp", "chaos", sched},
	}
	for _, c := range cells {
		cellSpec := spec
		cellSpec.Transport = c.transport
		ts, res, err := cfg.capture(cellSpec, runSpec, core.CaptureOpts{Faults: c.faults})
		if err != nil {
			return nil, fmt.Errorf("E17b %s %s: %w", c.transport, c.scenario, err)
		}
		addE17Row(&t, c.transport, c.scenario, ts, res[0].Rounds[0], base)
	}
	return &t, nil
}

// addE17Row reduces one capture to a transport-comparison table row.
func addE17Row(t *Table, transport, scenario string, ts *core.TraceSet,
	round mapreduce.Result, base baseline) {
	ds := ts.Runs[0].Dataset()
	dur := float64(round.Duration()) / 1e9
	durs := ds.DurationSample(flows.PhaseShuffle).Values()
	t.AddRow(transport, scenario,
		f2(dur),
		f2(dur/base.secs),
		mb(ds.Volume(flows.PhaseShuffle)),
		f2(pctSorted(durs, 50)*1e3),
		f2(pctSorted(durs, 99)*1e3),
		f3(base.shuffleKS(ds)),
	)
}

// pctSorted returns the p-th percentile (nearest-rank) of an ascending
// slice, 0 when empty.
func pctSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
