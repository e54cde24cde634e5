package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/stats"
)

func TestGenSpecValidate(t *testing.T) {
	cases := []struct {
		name  string
		spec  GenSpec
		field string // "" = valid
	}{
		{"zero value is legal", GenSpec{}, ""},
		{"fully specified", GenSpec{Workload: "terasort", InputBytes: 1 << 30, BlockSize: 128 << 20, Reducers: 8, Workers: 16, Jobs: 4, Stagger: 0.5}, ""},
		{"negative input", GenSpec{InputBytes: -1}, "inputBytes"},
		{"negative block", GenSpec{BlockSize: -1}, "blockSize"},
		{"negative reducers", GenSpec{Reducers: -1}, "reducers"},
		{"reducers over limit", GenSpec{Reducers: maxSpecReducers + 1}, "reducers"},
		{"negative workers", GenSpec{Workers: -1}, "workers"},
		{"workers over limit", GenSpec{Workers: maxSpecWorkers + 1}, "workers"},
		{"negative jobs", GenSpec{Jobs: -1}, "jobs"},
		{"jobs over limit", GenSpec{Jobs: maxSpecJobs + 1}, "jobs"},
		{"NaN stagger", GenSpec{Stagger: math.NaN()}, "stagger"},
		{"infinite stagger", GenSpec{Stagger: math.Inf(1)}, "stagger"},
		{"negative stagger is legal (clamped)", GenSpec{Stagger: -2}, ""},
		{"map-count overflow", GenSpec{InputBytes: math.MaxInt64 - 1, BlockSize: 2}, "inputBytes"},
		{"absurd map count", GenSpec{InputBytes: math.MaxInt64 / 2, BlockSize: 1}, "inputBytes"},
		{"huge input at sane block size", GenSpec{InputBytes: 1 << 50, BlockSize: 128 << 20, Workload: "t"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			checkSpecErr(t, err, tc.field, "GenSpec")
		})
	}
}

func TestMixSpecValidate(t *testing.T) {
	w := map[string]float64{"terasort": 1}
	cases := []struct {
		name  string
		spec  MixSpec
		field string
	}{
		{"minimal valid", MixSpec{Weights: w}, ""},
		{"NaN rate", MixSpec{Weights: w, JobsPerMinute: math.NaN()}, "jobsPerMinute"},
		{"negative rate", MixSpec{Weights: w, JobsPerMinute: -1}, "jobsPerMinute"},
		{"infinite window", MixSpec{Weights: w, WindowSecs: math.Inf(1)}, "windowSecs"},
		{"negative window", MixSpec{Weights: w, WindowSecs: -1}, "windowSecs"},
		{"NaN scale", MixSpec{Weights: w, InputScale: math.NaN()}, "inputScale"},
		{"negative scale", MixSpec{Weights: w, InputScale: -0.5}, "inputScale"},
		{"negative workers", MixSpec{Weights: w, Workers: -1}, "workers"},
		{"workers over limit", MixSpec{Weights: w, Workers: maxSpecWorkers + 1}, "workers"},
		{"no weights", MixSpec{}, "weights"},
		{"NaN weight", MixSpec{Weights: map[string]float64{"t": math.NaN()}}, "weights"},
		{"negative weight", MixSpec{Weights: map[string]float64{"t": -1}}, "weights"},
		{"unbounded arrivals", MixSpec{Weights: w, JobsPerMinute: 1e12, WindowSecs: 1e6}, "jobsPerMinute"},
		{"window past int64 ns", MixSpec{Weights: w, JobsPerMinute: 1e-9, WindowSecs: 1e12}, "windowSecs"},
		{"window up to int64 ns", MixSpec{Weights: w, JobsPerMinute: 1e-9, WindowSecs: 9e9}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			checkSpecErr(t, err, tc.field, "MixSpec")
		})
	}
}

func checkSpecErr(t *testing.T, err error, field, spec string) {
	t.Helper()
	if field == "" {
		if err != nil {
			t.Fatalf("unexpected rejection: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("accepted; want a %s.%s rejection", spec, field)
	}
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("%v does not wrap ErrBadSpec", err)
	}
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("%v is not a *SpecError", err)
	}
	if se.Spec != spec || se.Field != field {
		t.Fatalf("rejected %s.%s, want %s.%s (%v)", se.Spec, se.Field, spec, field, err)
	}
	if !strings.Contains(err.Error(), field) {
		t.Fatalf("message %q does not name the field", err)
	}
}

// TestGenerateRejectsBadSpec: validation runs inside the estimators and
// generators themselves, so no caller can bypass it, and every rejection
// there is a spec error naming its field.
func TestGenerateRejectsBadSpec(t *testing.T) {
	model := mixModel(t)
	ctx := context.Background()
	generate := func(g GenSpec) error { _, err := model.Generate(ctx, g); return err }
	estimate := func(g GenSpec) error { _, err := model.EstimateFlows(g); return err }
	cases := []struct {
		name  string
		spec  GenSpec
		field string
	}{
		{"negative input", GenSpec{Workload: "terasort", InputBytes: -1}, "inputBytes"},
		// Scaled re-validation: a legal-looking spec whose defaults imply
		// an absurd map count is still rejected.
		{"scaled map count", GenSpec{Workload: "terasort", InputBytes: 1 << 40, BlockSize: 16}, "inputBytes"},
		{"unknown workload", GenSpec{Workload: "nosuch"}, "workload"},
		// Job 2 would start past the latest time int64 ns can hold.
		{"stagger past int64 ns", GenSpec{Workload: "terasort", Workers: 4, Jobs: 3, Stagger: 1e9}, "stagger"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkSpecErr(t, generate(tc.spec), tc.field, "GenSpec")
			checkSpecErr(t, estimate(tc.spec), tc.field, "GenSpec")
		})
	}
	if _, err := model.GenerateMix(ctx, MixSpec{Weights: map[string]float64{"terasort": math.NaN()}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("GenerateMix: %v, want ErrBadSpec", err)
	}
}

// TestScheduleLimit: every field is within its own bound, but the
// schedule would not fit in any machine's memory. The estimators and the
// generators refuse it alike, before allocating, with an error that is
// both a spec error and ErrScheduleTooLarge.
func TestScheduleLimit(t *testing.T) {
	model := mixModel(t)
	tooLarge := func(err error, field, spec string) {
		t.Helper()
		checkSpecErr(t, err, field, spec)
		if !errors.Is(err, ErrScheduleTooLarge) {
			t.Fatalf("%v does not match ErrScheduleTooLarge", err)
		}
	}
	huge := GenSpec{Workload: "terasort", InputBytes: 1 << 40, BlockSize: 1 << 20, Reducers: 1 << 20}
	_, err := model.EstimateFlows(huge)
	tooLarge(err, "inputBytes", "GenSpec")
	_, err = model.Generate(context.Background(), huge)
	tooLarge(err, "inputBytes", "GenSpec")

	// Many arrivals, each job well within the limit on its own.
	const scale = 16
	per, err := model.EstimateFlows(GenSpec{Workload: "terasort", Workers: 16,
		InputBytes: model.Jobs["terasort"].RefInputBytes * scale})
	if err != nil {
		t.Fatal(err)
	}
	perMinute := 1.5 * maxSpecFlows / float64(per)
	if perMinute > 0.9*maxMixArrivals {
		t.Fatalf("%d flows per job needs %.0f arrivals, too many for one window", per, perMinute)
	}
	manyJobs := MixSpec{Weights: map[string]float64{"terasort": 1}, WindowSecs: 60,
		JobsPerMinute: perMinute, InputScale: scale}
	_, err = model.EstimateMixFlows(manyJobs, 0)
	tooLarge(err, "inputScale", "MixSpec")
	_, err = model.GenerateMix(context.Background(), manyJobs)
	tooLarge(err, "inputScale", "MixSpec")

	// A few arrivals, but heartbeats over an enormous window.
	longBackground := MixSpec{Weights: map[string]float64{"terasort": 1}, WindowSecs: 1e15,
		JobsPerMinute: 1e-12, IncludeBackground: true}
	_, err = model.EstimateMixFlows(longBackground, 0)
	tooLarge(err, "windowSecs", "MixSpec")
	_, err = model.GenerateMix(context.Background(), longBackground)
	tooLarge(err, "windowSecs", "MixSpec")

	// The same heartbeats over a window that int64 nanoseconds can hold
	// are refused for their count, not their span.
	longBackground.WindowSecs = 1e9
	for _, err := range []error{
		func() error { _, err := model.EstimateMixFlows(longBackground, 0); return err }(),
		func() error { _, err := model.GenerateMix(context.Background(), longBackground); return err }(),
	} {
		tooLarge(err, "windowSecs", "MixSpec")
		if !strings.Contains(err.Error(), "flow schedule limit") {
			t.Fatalf("%v: refused for its span, want its flow count", err)
		}
	}

	// Malformed specs are not too large.
	if _, err := model.EstimateMixFlows(MixSpec{}, 0); !errors.Is(err, ErrBadSpec) || errors.Is(err, ErrScheduleTooLarge) {
		t.Fatalf("empty mix: %v, want a plain spec error", err)
	}
}

// TestNarrowedFieldsFit: the schedule's records store a flow's
// ephemeral port in 16 bits and its run the well-known port as uint16,
// so every port a generated flow can carry — each port a phase rule
// places and every well-known flows.Port* constant — must fit one. A
// run keeps one port side for all its flows, so each rule must put its
// own port on its portOnSrc side and the drawn port on the other. And a
// job's phase runs must stay within the maxRunsPerJob that
// speccheck.go's run-index guard assumes. Changing a port, a rule or
// the phase list past any of these fails here instead of truncating.
func TestNarrowedFieldsFit(t *testing.T) {
	if n := len(flows.AllPhases); n > maxRunsPerJob {
		t.Errorf("%d phases per job, above maxRunsPerJob = %d", n, maxRunsPerJob)
	}
	ports := []struct {
		name string
		port int
	}{
		{"lowest ephemeral", flows.EphemeralPortLo},
		{"highest ephemeral", flows.EphemeralPortLo + flows.EphemeralPorts - 1},
		{"PortDataNodeData", flows.PortDataNodeData},
		{"PortDataNodeIPC", flows.PortDataNodeIPC},
		{"PortNameNodeRPC", flows.PortNameNodeRPC},
		{"PortNameNodeHTTP", flows.PortNameNodeHTTP},
		{"PortShuffle", flows.PortShuffle},
		{"PortRMScheduler", flows.PortRMScheduler},
		{"PortRMTracker", flows.PortRMTracker},
		{"PortRMAdmin", flows.PortRMAdmin},
		{"PortRMClient", flows.PortRMClient},
		{"PortNMIPC", flows.PortNMIPC},
		{"PortNMHTTP", flows.PortNMHTTP},
		{"PortJobHistory", flows.PortJobHistory},
		{"PortAMUmbilical", flows.PortAMUmbilical},
	}
	fixed := map[int]bool{}
	for _, p := range ports {
		if p.port < 0 || p.port > math.MaxUint16 {
			t.Errorf("%s = %d does not fit uint16", p.name, p.port)
		}
		fixed[p.port] = true
	}
	// Every port a phase rule places, from the ports the sampling loops
	// draw, must be one the table checked: a listed constant or inside
	// the ephemeral range.
	rng := stats.NewRNG(1)
	for _, ph := range append(slices.Clone(flows.AllPhases), flows.PhaseOther) {
		rule := phaseRules[ph]
		for i := 0; i < 10_000; i++ {
			eph := flows.EphemeralPort(rng)
			sp, dp := rule.ports(eph)
			for _, p := range []int{sp, dp} {
				if !fixed[p] && (p < flows.EphemeralPortLo || p >= flows.EphemeralPortLo+flows.EphemeralPorts) {
					t.Fatalf("%s rule placed port %d, outside the checked set", ph, p)
				}
			}
			well, drawn := dp, sp
			if rule.portOnSrc {
				well, drawn = sp, dp
			}
			if well != int(rule.port) || drawn != eph {
				t.Fatalf("%s rule (port %d, portOnSrc %v) placed (%d, %d) for drawn port %d",
					ph, rule.port, rule.portOnSrc, sp, dp, eph)
			}
		}
	}
}
