package experiments

import (
	"context"
	"fmt"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/workload"
)

func init() {
	register("E7", "fitted distribution table per workload x phase", runE7)
	register("E8", "model validation: measured vs generated traffic", runE8)
}

// corpus captures the measurement corpus the modelling experiments share:
// each workload run several times with slightly jittered input sizes, as
// the paper's repeated-trials methodology does.
func corpus(cfg Config, profiles []string, repeats int) (*core.TraceSet, error) {
	var specs []workload.RunSpec
	for _, p := range profiles {
		base := cfg.gb(2)
		for i := 0; i < repeats; i++ {
			// Jitter sizes ±12% so count/size laws see variation.
			jit := 1 + 0.12*float64(i-repeats/2)/float64(repeats)
			specs = append(specs, workload.RunSpec{
				Profile:    p,
				InputBytes: int64(float64(base) * jit),
				JobName:    fmt.Sprintf("%s-rep%d", p, i),
				InputPath:  fmt.Sprintf("/data/%s-rep%d", p, i),
			})
		}
	}
	ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 16, Seed: cfg.Seed}, specs, core.CaptureOpts{Telemetry: cfg.Telemetry, StrictChecks: cfg.StrictChecks})
	if err != nil {
		return nil, fmt.Errorf("corpus capture: %w", err)
	}
	return ts, nil
}

// runE7 reproduces the fitted-model table: per workload × phase, the
// selected distribution family, parameters, and goodness of fit —
// Keddah's central modelling artefact.
func runE7(cfg Config) ([]Table, error) {
	ts, err := corpus(cfg, workload.Names(), 5)
	if err != nil {
		return nil, err
	}
	model, err := core.FitWith(ts, core.FitOptions{}, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	t := Table{
		ID:    "E7",
		Title: "Fitted flow-size laws per workload x phase",
		Note:  "family selected by AIC among {exp, normal, lognormal, gamma, weibull, pareto}; atoms are block-size point masses",
		Headers: []string{"workload", "phase", "samples", "atoms", "size law",
			"KS", "KS p", "count unit", "flows/unit"},
	}
	for _, name := range model.WorkloadNames() {
		jm := model.Jobs[name]
		for _, ph := range flows.AllPhases {
			pm, ok := jm.Phases[ph]
			if !ok {
				continue
			}
			law, err := pm.Size.Build()
			if err != nil {
				return nil, err
			}
			atoms := ""
			for i, a := range pm.SizeAtoms {
				if i > 0 {
					atoms += " "
				}
				atoms += fmt.Sprintf("%.0fMB@%.0f%%", a.Value/(1<<20), a.Weight*100)
			}
			if atoms == "" {
				atoms = "-"
			}
			t.AddRow(name, string(ph), itoa(pm.Samples), atoms, law.String(),
				f3(pm.SizeGoF.KS), f3(pm.SizeGoF.KSP), pm.Unit, f2(pm.CountPerUnit))
		}
	}

	t2 := Table{
		ID:      "E7b",
		Title:   "Per-workload traffic scaling factors",
		Headers: []string{"workload", "runs", "bytes per input byte", "mean duration s"},
	}
	for _, name := range model.WorkloadNames() {
		jm := model.Jobs[name]
		t2.AddRow(name, itoa(jm.RefRuns), f2(jm.BytesPerInputByte), f2(jm.DurationSecs))
	}
	return []Table{t, t2}, nil
}

// runE8 reproduces the validation table: regenerate each workload from
// its fitted model, replay on the same fabric, and compare measured vs
// generated per-phase volumes, counts and size/arrival distributions.
func runE8(cfg Config) ([]Table, error) {
	profiles := workload.Names()
	const repeats = 5
	ts, err := corpus(cfg, profiles, repeats)
	if err != nil {
		return nil, err
	}
	model, err := core.FitWith(ts, core.FitOptions{}, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	t := Table{
		ID:    "E8",
		Title: "Model validation: measured vs generated",
		Note:  "two-sample KS over per-flow sizes; volumes per job instance",
		Headers: []string{"workload", "phase", "meas flows", "gen flows",
			"meas MB", "gen MB", "vol err %", "size KS", "arrival KS"},
	}
	byWorkload := ts.ByWorkload()
	for _, prof := range profiles {
		runs := byWorkload[prof]
		var measured []pcap.FlowRecord
		for _, r := range runs {
			measured = append(measured, r.Records...)
		}
		sched, err := model.Generate(context.Background(), core.GenSpec{
			Workload: prof,
			Workers:  16,
			Jobs:     len(runs),
			Seed:     cfg.Seed + 7,
		})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", prof, err)
		}
		gen, _, err := core.ReplayWith(sched, core.ClusterSpec{Workers: 16, Seed: cfg.Seed + 7}, cfg.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", prof, err)
		}
		v := core.ValidateWith(prof, measured, gen, cfg.Telemetry)
		for _, pc := range v.Phases {
			t.AddRow(prof, string(pc.Phase), itoa(pc.MeasuredFlows), itoa(pc.GeneratedFlows),
				mb(pc.MeasuredBytes), mb(pc.GeneratedBytes),
				f2(pc.VolumeError*100), f3(pc.SizeKS), f3(pc.ArrivalKS))
		}
	}
	return []Table{t}, nil
}
