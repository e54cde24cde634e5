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
	ts, _, err := cfg.capture(core.ClusterSpec{Workers: 16, Seed: cfg.Seed}, specs, core.CaptureOpts{})
	if err != nil {
		return nil, fmt.Errorf("corpus capture: %w", err)
	}
	return ts, nil
}

// fitted captures a corpus and fits the traffic model to it.
func fitted(cfg Config, profiles []string, repeats int) (*core.TraceSet, *core.Model, error) {
	ts, err := corpus(cfg, profiles, repeats)
	if err != nil {
		return nil, nil, err
	}
	model, err := core.FitWith(ts, core.FitOptions{}, cfg.Telemetry)
	if err != nil {
		return nil, nil, fmt.Errorf("fit: %w", err)
	}
	return ts, model, nil
}

// records pools the flow records of runs.
func records(runs []*core.Run) []pcap.FlowRecord {
	var recs []pcap.FlowRecord
	for _, r := range runs {
		recs = append(recs, r.Records...)
	}
	return recs
}

// runE7 reproduces the fitted-model table: per workload × phase, the
// selected distribution family, parameters, and goodness of fit —
// Keddah's central modelling artefact.
func runE7(cfg Config) ([]Table, error) {
	_, model, err := fitted(cfg, workload.Names(), 5)
	if err != nil {
		return nil, err
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
	ts, model, err := fitted(cfg, profiles, 5)
	if err != nil {
		return nil, err
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
		v, err := predict(cfg, model, core.GenSpec{
			Workload: prof,
			Workers:  16,
			Jobs:     len(runs),
			Seed:     cfg.Seed + 7,
		}, records(runs))
		if err != nil {
			return nil, err
		}
		for _, pc := range v.Phases {
			row := append([]string{prof}, phaseCells(pc)...)
			t.AddRow(append(row, f3(pc.ArrivalKS))...)
		}
	}
	return []Table{t}, nil
}

// predict generates spec's traffic from model, replays it on a 16-worker
// star seeded like the generator, and validates it against measured.
func predict(cfg Config, model *core.Model, spec core.GenSpec, measured []pcap.FlowRecord) (core.Validation, error) {
	sched, err := model.Generate(context.Background(), spec)
	if err != nil {
		return core.Validation{}, fmt.Errorf("generate %s: %w", spec.Workload, err)
	}
	gen, _, err := core.ReplayWith(sched, core.ClusterSpec{Workers: 16, Seed: spec.Seed}, cfg.Telemetry)
	if err != nil {
		return core.Validation{}, fmt.Errorf("replay %s: %w", spec.Workload, err)
	}
	return core.ValidateWith(spec.Workload, measured, gen, cfg.Telemetry), nil
}

// phaseCells formats one phase of a validation: the phase, measured and
// generated flow counts and volumes, the volume error and the size KS.
func phaseCells(pc core.PhaseComparison) []string {
	return []string{string(pc.Phase), itoa(pc.MeasuredFlows), itoa(pc.GeneratedFlows),
		mb(pc.MeasuredBytes), mb(pc.GeneratedBytes), f2(pc.VolumeError * 100), f3(pc.SizeKS)}
}
