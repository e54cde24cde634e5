package experiments

import (
	"fmt"

	"keddah/internal/core"
	"keddah/internal/workload"
)

func init() {
	register("E15", "scaling validation: fit at small inputs, predict large", runE15)
}

// runE15 tests the property the toolchain exists to provide: a model
// fitted at small input sizes must generate correct traffic for a much
// larger job. It fits terasort on {1,2,4} GB runs, generates an 8 GB
// job, and validates against an actually-measured 8 GB run. Expected
// shape: flow counts scale structurally (maps × reducers), per-phase
// volumes land within ~15%, and per-flow size distributions match
// (sizes are scale-invariant: more input means more block-sized flows,
// not bigger ones).
func runE15(cfg Config) ([]Table, error) {
	// Fit corpus: three sizes, one run each.
	var specs []workload.RunSpec
	for i, gbs := range []float64{1, 2, 4} {
		specs = append(specs, workload.RunSpec{
			Profile:    "terasort",
			InputBytes: cfg.gb(gbs),
			JobName:    fmt.Sprintf("fit%d", i),
			InputPath:  fmt.Sprintf("/data/fit%d", i),
		})
	}
	ts, _, err := cfg.capture(core.ClusterSpec{Workers: 16, Seed: cfg.Seed}, specs, core.CaptureOpts{})
	if err != nil {
		return nil, fmt.Errorf("E15 fit corpus: %w", err)
	}
	model, err := core.FitWith(ts, core.FitOptions{}, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("E15 fit: %w", err)
	}
	jm := model.Jobs["terasort"]

	// Ground truth at the target size (unseen by the model).
	target := cfg.gb(8)
	truth, truthResults, err := cfg.capture(core.ClusterSpec{Workers: 16, Seed: cfg.Seed + 1},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: target}}, core.CaptureOpts{})
	if err != nil {
		return nil, fmt.Errorf("E15 target capture: %w", err)
	}

	// Model prediction at the target size.
	v, err := predict(cfg, model, core.GenSpec{
		Workload:   "terasort",
		InputBytes: target,
		Reducers:   truthResults[0].Rounds[0].Reducers, // same configuration axis
		Workers:    16,
		Seed:       cfg.Seed + 2,
	}, truth.Runs[0].Records)
	if err != nil {
		return nil, fmt.Errorf("E15 %w", err)
	}
	t := Table{
		ID:    "E15",
		Title: "Scaling validation: model fitted at {1,2,4} GB, tested at 8 GB",
		Note: fmt.Sprintf("fitted duration model: %.1fs + %.2fs/GB; predicted %.1fs for the target",
			jm.DurIntercept, jm.DurSecsPerByte*float64(1<<30), jm.DurationAt(target)),
		Headers: []string{"phase", "meas flows", "gen flows", "meas MB", "gen MB",
			"vol err %", "size KS"},
	}
	for _, pc := range v.Phases {
		t.AddRow(phaseCells(pc)...)
	}
	return []Table{t}, nil
}
