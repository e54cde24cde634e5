// Command keddah-gen generates synthetic Hadoop traffic from a fitted
// model and either writes the flow schedule as JSON (for use with an
// external simulator) or replays it on the built-in network simulator.
//
// Usage:
//
//	keddah-gen -model model.json -workload terasort -input-gb 16 \
//	    -jobs 4 -stagger 0.25 -workers 64 -replay -topology fattree -fattree-k 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "keddah-gen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelPath  = flag.String("model", "model.json", "fitted model input path")
		wl         = flag.String("workload", "terasort", "workload to generate")
		inputGB    = flag.Float64("input-gb", 0, "target input size in GiB (0 = model reference)")
		reducers   = flag.Int("reducers", 0, "reducer count (0 = scaled from reference)")
		jobs       = flag.Int("jobs", 1, "job instances")
		stagger    = flag.Float64("stagger", 1, "job start spacing as fraction of job duration")
		workers    = flag.Int("workers", core.DefaultWorkers, "worker hosts to spread traffic over")
		background = flag.Bool("background", false, "include cluster heartbeat traffic")
		seed       = flag.Int64("seed", 1, "generation seed")
		out        = flag.String("out", "", "schedule output path (empty = skip)")
		format     = flag.String("format", "json", "schedule format: json | jsonl | csv | ns3")
		replay     = flag.Bool("replay", false, "replay the schedule on the built-in simulator")
		topology   = flag.String("topology", "star", "replay fabric: star | multirack | fattree")
		transport  = flag.String("transport", "fluid", "replay transport model: fluid | tcp")
		racks      = flag.Int("racks", 2, "rack count (multirack)")
		uplinkGbps = flag.Float64("uplink-gbps", 10, "rack uplink capacity (multirack)")
		fatTreeK   = flag.Int("fattree-k", 4, "fat-tree arity (fattree)")
	)
	flag.Parse()
	// Refuse a bad replay transport before the schedule is generated
	// and exported, so a refused run writes nothing.
	if *replay {
		if err := (netsim.Config{Transport: *transport}).Validate(); err != nil {
			return err
		}
	}

	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := core.ReadModel(f)
	f.Close()
	if err != nil {
		return err
	}

	sched, err := model.Generate(context.Background(), core.GenSpec{
		Workload:          *wl,
		InputBytes:        int64(*inputGB * float64(1<<30)),
		Reducers:          *reducers,
		Workers:           *workers,
		Jobs:              *jobs,
		Stagger:           *stagger,
		IncludeBackground: *background,
		Seed:              *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d flows\n", len(sched))

	if *out != "" {
		o, err := os.Create(*out)
		if err != nil {
			return err
		}
		switch *format {
		case "json":
			err = json.NewEncoder(o).Encode(sched)
		case "jsonl":
			err = core.ExportJSONL(o, sched)
		case "csv":
			err = core.ExportCSV(o, sched)
		case "ns3":
			err = core.ExportNS3(o, sched, *workers)
		default:
			err = fmt.Errorf("unknown format %q (json | jsonl | csv | ns3)", *format)
		}
		if err != nil {
			o.Close()
			return err
		}
		if err := o.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *out, *format)
	}

	if !*replay {
		return nil
	}
	spec := core.ClusterSpec{
		Topology:   *topology,
		Workers:    *workers,
		Racks:      *racks,
		UplinkGbps: *uplinkGbps,
		FatTreeK:   *fatTreeK,
		Transport:  *transport,
		Seed:       *seed,
	}
	recs, makespan, err := core.ReplayWith(sched, spec, nil)
	if err != nil {
		return err
	}
	ds := flows.NewDataset(recs)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "phase\tflows\tMB\tmean flow s\n")
	for _, ph := range flows.AllPhases {
		durs := ds.Durations(ph)
		var mean float64
		for _, d := range durs {
			mean += d
		}
		if len(durs) > 0 {
			mean /= float64(len(durs))
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.3f\n", ph, ds.Count(ph),
			float64(ds.Volume(ph))/(1<<20), mean)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("replay makespan: %.2fs on %s\n", float64(makespan)/1e9, *topology)
	return nil
}
