package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"keddah/internal/stats"
)

// MixSpec parameterises a multi-tenant scenario: jobs of several
// workloads arriving as a Poisson process over a time window — the
// "more realistic scenarios" the paper's abstract motivates. Each
// arrival instantiates one job from the fitted model library.
type MixSpec struct {
	// Weights gives each workload's relative arrival frequency. Only
	// workloads present in the model library are valid.
	Weights map[string]float64 `json:"weights"`
	// JobsPerMinute is the Poisson arrival rate (default 2).
	JobsPerMinute float64 `json:"jobsPerMinute"`
	// WindowSecs is the arrival window; jobs arriving near the end
	// still run to completion (default 300). A window that reaches
	// sim.MaxTime is refused.
	WindowSecs float64 `json:"windowSecs"`
	// InputScale multiplies each model's reference input size
	// (default 1).
	InputScale float64 `json:"inputScale"`
	// Workers spreads traffic over this many hosts (default
	// DefaultWorkers).
	Workers int `json:"workers"`
	// IncludeBackground adds cluster heartbeat traffic over the window.
	IncludeBackground bool `json:"includeBackground"`
	// Seed fixes arrivals and per-job generation.
	Seed int64 `json:"seed"`
}

func (m MixSpec) withDefaults() MixSpec {
	if m.JobsPerMinute <= 0 {
		m.JobsPerMinute = 2
	}
	if m.WindowSecs <= 0 {
		m.WindowSecs = 300
	}
	if m.InputScale <= 0 {
		m.InputScale = 1
	}
	if m.Workers <= 0 {
		m.Workers = DefaultWorkers
	}
	return m
}

// GenerateMix builds a synthetic multi-job schedule from the model
// library. Arrivals are Poisson; workloads are drawn by weight; each
// arrival's traffic is one Generate(Jobs=1) instance shifted to its
// arrival time. The spec is checked up front (errors wrap ErrBadSpec)
// and ctx is polled before each arrival — plus inside each arrival's
// generation — so a vanished client aborts the mix mid-window.
func (m *Model) GenerateMix(ctx context.Context, spec MixSpec) ([]SynthFlow, error) {
	b, err := m.mixSchedule(ctx, spec)
	if err != nil {
		return nil, err
	}
	return b.collect()
}

// GenerateMixChunks streams the schedule GenerateMix would return
// through emit in slices of at most chunk flows, with the same
// cancellation and memory contract as Model.GenerateChunks: each arrival
// is sampled only when the merge reaches its arrival time, unless
// IncludeBackground has every flow sampled before the first is emitted.
func (m *Model) GenerateMixChunks(ctx context.Context, spec MixSpec, chunk int, emit func([]SynthFlow) error) error {
	b, err := m.mixSchedule(ctx, spec)
	if err != nil {
		return err
	}
	return b.stream(ctx, chunk, emit)
}

// mixArrival is one job instance of a mix: its workload and arrival time.
type mixArrival struct {
	workload string
	at       float64
}

// EstimateMixFlows predicts the length of the schedule GenerateMix would
// produce for spec, as EstimateFlows does for Generate: it draws the
// arrival process, which is cheap, but samples no flow. Without
// IncludeBackground the count is exact. The background also covers the
// tail of the last job, which is known only once the jobs are sampled,
// so with it the count includes the background over the window alone
// and is a lower bound. Arrivals stop being drawn once their flows pass
// limit, the caller's flow cap (≤ 0: the schedule limit), so refusing a
// spec costs work in proportion to limit and a count above it is a
// lower bound. Specs over the schedule limit fail as in EstimateFlows.
func (m *Model) EstimateMixFlows(spec MixSpec, limit int64) (int64, error) {
	p, err := m.planMix(spec, limit)
	if err != nil {
		return 0, err
	}
	return p.estimate, nil
}

// mixPlan is a validated, defaulted mix with its arrival process drawn.
type mixPlan struct {
	spec     MixSpec
	arrivals []mixArrival
	shapes   map[string]genShape
	// count is the exact flow count of the arrivals, estimate the
	// EstimateMixFlows result.
	count, estimate int64
	// rng is the mix RNG just past the arrivals, where the background
	// draws continue.
	rng *stats.RNG
}

// planMix draws spec's arrivals and shapes each workload once. The mix
// RNG draws only arrivals and then the background, and each arrival
// samples from its own seed, so the whole arrival process can be drawn
// first. That fixes every arrival's shape, and with it the exact count
// of its flows, before any flow is sampled. Drawing stops once the count
// passes limit (≤ 0: the schedule limit), leaving a plan without
// background; below limit the draws are those of an unlimited plan.
func (m *Model) planMix(spec MixSpec, limit int64) (*mixPlan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	// Deterministic weighted sampler over sorted names.
	names := make([]string, 0, len(spec.Weights))
	var total float64
	for name, w := range spec.Weights {
		if _, ok := m.Jobs[name]; !ok {
			return nil, mixErr("weights", fmt.Sprintf("names workload %q, which the model does not hold", name))
		}
		names = append(names, name)
		total += w
	}
	if total <= 0 {
		return nil, mixErr("weights", "sum to zero")
	}
	sort.Strings(names)

	rng := stats.NewRNG(spec.Seed)
	pick := func() string {
		r := rng.Float64() * total
		acc := 0.0
		for _, n := range names {
			acc += spec.Weights[n]
			if r < acc {
				return n
			}
		}
		return names[len(names)-1]
	}

	if limit <= 0 || limit > maxSpecFlows {
		limit = maxSpecFlows
	}
	p := &mixPlan{spec: spec, shapes: make(map[string]genShape, len(names)), rng: rng}
	meanGapSecs := 60 / spec.JobsPerMinute
	// shape bounds each job's flows and the loop stops past limit, so
	// the count cannot overflow.
	for t := rng.ExpFloat64() * meanGapSecs; t < spec.WindowSecs && p.count <= limit; t += rng.ExpFloat64() * meanGapSecs {
		a := mixArrival{workload: pick(), at: t}
		sh, ok := p.shapes[a.workload]
		if !ok {
			var err error
			jm := m.Jobs[a.workload]
			sh, err = m.shape(GenSpec{
				Workload:   a.workload,
				InputBytes: int64(float64(jm.RefInputBytes) * spec.InputScale),
				Workers:    spec.Workers,
				Jobs:       1,
			})
			if err != nil {
				return nil, fmt.Errorf("mix arrival %d (%s): %w", len(p.arrivals), a.workload, err)
			}
			p.shapes[a.workload] = sh
		}
		p.arrivals = append(p.arrivals, a)
		p.count += sh.perJob
	}
	if p.count > maxSpecFlows {
		return nil, tooManyFlows("MixSpec", "inputScale", float64(p.count))
	}
	p.estimate = p.count
	if p.count > limit {
		return p, nil
	}
	if spec.IncludeBackground && m.Background != nil {
		if err := m.checkMixBackground(p.count, spec.WindowSecs, spec.Workers); err != nil {
			return nil, err
		}
		p.estimate += int64(m.backgroundCount(spec.WindowSecs, spec.Workers))
	}
	return p, nil
}

// checkMixBackground refuses a mix whose background over spanSecs would
// take its schedule of arrivalFlows past the schedule limit.
func (m *Model) checkMixBackground(arrivalFlows int64, spanSecs float64, workers int) error {
	if n := float64(arrivalFlows) + m.Background.CountPerUnit*spanSecs*float64(workers); !(n <= maxSpecFlows) {
		return tooManyFlows("MixSpec", "windowSecs", n)
	}
	return nil
}

// mixSchedule lists a mix's sources in the order they draw: every
// arrival, each from its own seed and shifted to its arrival time and
// relabelled, then the background from the mix RNG. The laws of every
// workload are built first, in the order of their first arrival, so a
// bad one fails before any flow is sampled.
func (m *Model) mixSchedule(ctx context.Context, spec MixSpec) (*scheduleBuilder, error) {
	p, err := m.planMix(spec, maxSpecFlows)
	if err != nil {
		return nil, err
	}
	spec = p.spec
	bounds := make([]int64, len(p.arrivals), len(p.arrivals)+1)
	for i, a := range p.arrivals {
		bounds[i] = startNs(a.at, 0)
		if sh := p.shapes[a.workload]; sh.laws == nil {
			if err := sh.buildLaws(); err != nil {
				return nil, fmt.Errorf("mix arrival %d (%s): %w", i, a.workload, err)
			}
			p.shapes[a.workload] = sh
		}
	}
	if spec.IncludeBackground && m.Background != nil {
		bounds = append(bounds, 0)
	}
	return newScheduleBuilder(bounds, p.count, &mixSources{ctx: ctx, m: m, p: p}), nil
}

// mixSources samples a mix's arrivals, each from its own seed, then its
// background from the mix RNG.
type mixSources struct {
	ctx context.Context
	m   *Model
	p   *mixPlan
}

func (s *mixSources) sample(b *scheduleBuilder, i int) error {
	p := s.p
	if i == len(p.arrivals) {
		return s.m.appendMixBackground(s.ctx, b, p)
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("core: generate mix: %w", err)
	}
	a := p.arrivals[i]
	arrivalRNG := stats.NewRNG(p.spec.Seed + int64(i)*7919)
	label := fmt.Sprintf("%s-mix%d", a.workload, i)
	if err := p.shapes[a.workload].appendJob(s.ctx, b, arrivalRNG, 0, startNs(a.at, 0), label); err != nil {
		return fmt.Errorf("mix arrival %d (%s): %w", i, a.workload, err)
	}
	return nil
}

// appendMixBackground samples a mix's heartbeats over its window plus
// the tail of the last job, once every arrival is sampled.
func (m *Model) appendMixBackground(ctx context.Context, b *scheduleBuilder, p *mixPlan) error {
	span := p.spec.WindowSecs
	if end := float64(b.latest) / 1e9; end > span {
		span = end
	}
	if err := m.checkMixBackground(p.count, span, p.spec.Workers); err != nil {
		return err
	}
	b.total += int64(m.backgroundCount(span, p.spec.Workers))
	return m.appendBackground(ctx, b, p.spec.Workers, span, p.rng)
}

// MixSummary reports per-workload composition of a mix schedule.
type MixSummary struct {
	Arrivals map[string]int   `json:"arrivals"`
	Bytes    map[string]int64 `json:"bytes"`
	Flows    int              `json:"flows"`
	SpanSecs float64          `json:"spanSecs"`
}

// SummarizeMix aggregates a generated mix schedule by workload (job
// labels have the form "<workload>-mix<N>").
func SummarizeMix(schedule []SynthFlow) MixSummary {
	s := MixSummary{Arrivals: map[string]int{}, Bytes: map[string]int64{}}
	seen := map[string]bool{}
	var minNs, maxNs int64 = math.MaxInt64, 0
	for _, sf := range schedule {
		wl := sf.Job
		if i := strings.LastIndex(wl, "-mix"); i >= 0 {
			wl = wl[:i]
		}
		if !seen[sf.Job] && sf.Job != "background" {
			seen[sf.Job] = true
			s.Arrivals[wl]++
		}
		s.Bytes[wl] += sf.Bytes
		s.Flows++
		if sf.StartNs < minNs {
			minNs = sf.StartNs
		}
		if sf.StartNs > maxNs {
			maxNs = sf.StartNs
		}
	}
	if s.Flows > 0 {
		s.SpanSecs = float64(maxNs-minNs) / 1e9
	}
	return s
}
