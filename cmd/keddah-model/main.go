// Command keddah-model fits an empirical traffic model from a captured
// trace set and writes it as JSON, printing the fitted-law table.
//
// Usage:
//
//	keddah-model -in traces.json -out model.json
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"keddah/internal/core"
	"keddah/internal/flows"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "keddah-model:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in         = flag.String("in", "traces.json", "trace-set input path")
		out        = flag.String("out", "model.json", "model output path")
		minSamples = flag.Int("min-samples", 8, "minimum flows to fit a continuous law")
	)
	flag.Parse()

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	ts, err := core.ReadTraceSet(f)
	f.Close()
	if err != nil {
		return err
	}

	model, err := core.FitWith(ts, core.FitOptions{MinSamples: *minSamples}, nil)
	if err != nil {
		return err
	}

	o, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer o.Close()
	if err := model.WriteJSON(o); err != nil {
		return err
	}
	if err := o.Close(); err != nil {
		return err
	}

	// Fitted-law table.
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tphase\tsamples\tatoms\tsize law\tKS\tcount unit\tflows/unit\tvolume share")
	for _, name := range model.WorkloadNames() {
		jm := model.Jobs[name]
		for _, ph := range flows.AllPhases {
			pm, ok := jm.Phases[ph]
			if !ok {
				continue
			}
			law, err := pm.Size.Build()
			if err != nil {
				return err
			}
			atoms := "-"
			for i, a := range pm.SizeAtoms {
				s := fmt.Sprintf("%.1fMB@%.0f%%", a.Value/(1<<20), a.Weight*100)
				if i == 0 {
					atoms = s
				} else {
					atoms += " " + s
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%.3f\t%s\t%.2f\t%.1f%%\n",
				name, ph, pm.Samples, atoms, law, pm.SizeGoF.KS, pm.Unit, pm.CountPerUnit,
				pm.VolumeShare*100)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d workload models\n", *out, len(model.Jobs))
	return nil
}
