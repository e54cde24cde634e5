package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"keddah/internal/flows"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// PhaseModel is the fitted empirical model of one Hadoop traffic
// component within one workload: how many flows appear, how big each is,
// when the component begins relative to job start, and how flow arrivals
// are spaced. Counts carry structural scaling rules (flows-per-task /
// flows-per-block) so a model fitted at one input size generates traffic
// for another — the parameterised reuse the paper's toolchain provides.
type PhaseModel struct {
	// Size is the per-flow byte law for the continuous component.
	Size stats.DistSpec `json:"size"`
	// SizeAtoms are point masses drawn before the continuous law: with
	// probability Weight a flow has exactly Value bytes.
	SizeAtoms []Atom `json:"sizeAtoms,omitempty"`
	// SizeMin / SizeMax bound the observed (normalized) per-flow sizes;
	// generation winsorizes samples to this support so a heavy-tailed
	// fit cannot extrapolate far beyond anything actually measured.
	SizeMin float64 `json:"sizeMin"`
	SizeMax float64 `json:"sizeMax"`
	// SizeNormalizer names the per-run factor divided out of flow sizes
	// before fitting (and multiplied back at generation):
	// "reducers" for the shuffle — a shuffle flow is one map's output ÷
	// reducer count, so the law must be fitted on reducer-normalized
	// sizes or it cannot transfer across configurations. Empty for
	// phases whose sizes are already scale-free (block-structured HDFS
	// flows, fixed-size RPCs).
	SizeNormalizer string `json:"sizeNormalizer,omitempty"`
	// InterArrival is the seconds-between-flow-starts law.
	InterArrival stats.DistSpec `json:"interArrival"`
	// StartOffset is the law of (phase start − job start) in seconds.
	StartOffset stats.DistSpec `json:"startOffset"`
	// CountPerUnit scales flow counts: flows per structural unit
	// (see Unit).
	CountPerUnit float64 `json:"countPerUnit"`
	// Unit names the count driver: "mapxreduce" (map × reducer pairs),
	// "block" (input blocks), "controlmix" (3·maps + 2·reducers + job
	// seconds), "second" and "hostsecond" (job seconds; the background
	// also scales by hosts), or "job" (a fixed count per job, which any
	// other name also means). phase.go evaluates them.
	Unit string `json:"unit"`
	// VolumeShare is this phase's fraction of total job bytes (for
	// reporting and sanity checks).
	VolumeShare float64 `json:"volumeShare"`
	// SizeGoF records goodness of fit of the chosen size law.
	SizeGoF stats.GoFReport `json:"sizeGoF"`
	// Candidates summarises the per-family model selection for the size
	// law (family → AIC), best first.
	Candidates []CandidateFit `json:"candidates,omitempty"`
	// Samples is the number of flows the phase was fitted from.
	Samples int `json:"samples"`
}

// CandidateFit records one family considered during model selection.
type CandidateFit struct {
	Family stats.Family `json:"family"`
	AIC    float64      `json:"aic"`
	KS     float64      `json:"ks"`
	Failed bool         `json:"failed,omitempty"`
}

// Atom is a point mass in a spike-and-slab size model. HDFS traffic is
// dominated by flows of exactly one block (the spike); the continuous law
// models the remainder (partial blocks, small files).
type Atom struct {
	Value  float64 `json:"value"`
	Weight float64 `json:"weight"`
}

// JobModel is the complete fitted model of one workload's traffic.
type JobModel struct {
	Workload string `json:"workload"`
	// Reference parameters the model was fitted at.
	RefInputBytes  int64   `json:"refInputBytes"`
	RefMaps        int     `json:"refMaps"`
	RefReducers    int     `json:"refReducers"`
	RefBlockSize   int64   `json:"refBlockSize"`
	RefReplication int     `json:"refReplication"`
	RefRuns        int     `json:"refRuns"`
	DurationSecs   float64 `json:"durationSecs"`
	// DurIntercept/DurSecsPerByte model job duration as a linear
	// function of input size, fitted by least squares when the corpus
	// spans multiple sizes. Parallel clusters absorb input growth until
	// slots saturate, so duration is affine — not proportional — in
	// input; generation at other scales depends on getting this right.
	DurIntercept   float64 `json:"durIntercept"`
	DurSecsPerByte float64 `json:"durSecsPerByte"`
	// Phases maps each traffic component to its model.
	Phases map[flows.Phase]*PhaseModel `json:"phases"`
	// BytesPerInputByte is total job traffic per input byte — the
	// headline volume scaling factor.
	BytesPerInputByte float64 `json:"bytesPerInputByte"`
}

// Model is a fitted Keddah model library: one JobModel per workload plus
// the cluster background control-traffic model.
type Model struct {
	// Jobs maps workload name to its model.
	Jobs map[string]*JobModel `json:"jobs"`
	// Background models cluster-wide heartbeat traffic: flows per host
	// per second with the fitted size law.
	Background *PhaseModel `json:"background,omitempty"`
}

// FitOptions tunes the modelling stage.
type FitOptions struct {
	// Candidates restricts the distribution families considered
	// (default stats.DefaultCandidates).
	Candidates []stats.Family
	// MinSamples is the minimum flow count to fit a law from
	// (default 8); smaller samples fall back to a Constant at the mean.
	MinSamples int
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MinSamples <= 0 {
		o.MinSamples = 8
	}
	return o
}

// FitWith builds the empirical traffic model from a measurement corpus:
// for every workload × phase it pools flows across runs, selects the
// best-fitting distribution family by AIC for sizes, inter-arrivals and
// phase start offsets, and derives the structural count scaling.
//
// The stage is split in two: a cheap serial pooling pass per workload,
// then the expensive distribution fitting fanned out over a pool of
// GOMAXPROCS goroutines with one task per (workload, phase) plus one for
// the cluster background model. Every task is an independent pure
// function and the results are assembled in a fixed order, so the fitted
// model — including its serialised JSON — is byte-identical at any
// GOMAXPROCS.
//
// A non-nil tel counts each successful fit and adds its wall time to a
// volatile gauge; a nil tel records nothing.
func FitWith(ts *TraceSet, opts FitOptions, tel *telemetry.Telemetry) (*Model, error) {
	wallStart := time.Now()
	opts = opts.withDefaults()
	if len(ts.Runs) == 0 {
		return nil, fmt.Errorf("core: trace set has no runs")
	}
	model := &Model{Jobs: make(map[string]*JobModel)}
	names := ts.Workloads()
	byWorkload := ts.ByWorkload()

	// Stage 1 (serial): pool per-phase samples for every workload.
	pools := make([]*workloadPool, len(names))
	for i, name := range names {
		pools[i] = poolWorkload(name, byWorkload[name])
	}

	// Stage 2 (parallel): one fit task per pooled (workload, phase).
	type phaseSlot struct {
		pool *workloadPool
		ph   flows.Phase
		pm   *PhaseModel
		err  error
	}
	var slots []*phaseSlot
	var tasks []func()
	for _, pool := range pools {
		for _, ph := range flows.AllPhases {
			pp, ok := pool.phases[ph]
			if !ok {
				continue
			}
			slot := &phaseSlot{pool: pool, ph: ph}
			slots = append(slots, slot)
			tasks = append(tasks, func() {
				slot.pm, slot.err = fitPhase(slot.ph, pp, pool, opts)
			})
		}
	}
	var bg *PhaseModel
	var bgErr error
	fitBG := len(ts.Background) > 0 && ts.BackgroundSpanNs > 0 && ts.BackgroundHosts > 0
	if fitBG {
		tasks = append(tasks, func() { bg, bgErr = fitBackground(ts, opts) })
	}
	runTasks(tasks)

	// Assemble in deterministic (workload, phase) order; the first
	// failure in that order wins, whatever finished first.
	for _, slot := range slots {
		if slot.err != nil {
			return nil, fmt.Errorf("fit %s: %w", slot.pool.jm.Workload, slot.err)
		}
		slot.pool.jm.Phases[slot.ph] = slot.pm
	}
	if fitBG {
		if bgErr != nil {
			return nil, fmt.Errorf("fit background: %w", bgErr)
		}
		model.Background = bg
	}
	for _, pool := range pools {
		model.Jobs[pool.jm.Workload] = pool.jm
	}
	if tel != nil {
		tel.Core.Fits.Inc()
		tel.Core.FitWallMs.Add(float64(time.Since(wallStart).Milliseconds()))
	}
	return model, nil
}

// runTasks drains tasks on up to GOMAXPROCS goroutines (GOMAXPROCS=1 or
// a single task = inline serial execution).
func runTasks(tasks []func()) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i]()
			}
		}()
	}
	wg.Wait()
}

// phasePool is one (workload, phase)'s pooled raw samples, ready for an
// independent fit task.
type phasePool struct {
	sizes      []float64
	inter      []float64
	offsets    []float64
	unitRatios []float64
	count      float64
	volume     float64
}

// workloadPool carries a workload's partially built JobModel (reference
// parameters, duration line) plus its pooled per-phase samples.
type workloadPool struct {
	jm         *JobModel
	phases     map[flows.Phase]*phasePool
	totalBytes float64
	runs       int
}

// poolWorkload pools a workload's runs into per-phase samples. Start
// offsets, inter-arrivals and count/unit ratios are computed per run
// (relative to that run's own start and configuration) before pooling;
// shuffle flow sizes are normalized by the run's reducer count so the
// fitted law transfers across configurations.
func poolWorkload(name string, runs []*Run) *workloadPool {
	jm := &JobModel{
		Workload: name,
		Phases:   make(map[flows.Phase]*PhaseModel, len(flows.AllPhases)),
		RefRuns:  len(runs),
	}
	var totalInput, totalDur float64
	for _, r := range runs {
		jm.RefInputBytes += r.InputBytes
		jm.RefMaps += r.Maps
		jm.RefReducers += r.Reducers
		jm.RefBlockSize = r.BlockSize
		jm.RefReplication = r.Replication
		totalInput += float64(r.InputBytes)
		totalDur += r.DurationSeconds()
	}
	n := len(runs)
	jm.RefInputBytes /= int64(n)
	jm.RefMaps /= n
	jm.RefReducers /= n
	jm.DurationSecs = totalDur / float64(n)
	jm.DurIntercept, jm.DurSecsPerByte = fitDurationLine(runs)

	pool := &workloadPool{
		jm:     jm,
		phases: make(map[flows.Phase]*phasePool, len(flows.AllPhases)),
		runs:   n,
	}
	for _, r := range runs {
		ds := r.Dataset()
		shape := runShape(r)
		for _, ph := range flows.AllPhases {
			cnt := ds.Count(ph)
			if cnt == 0 {
				continue
			}
			pp, ok := pool.phases[ph]
			if !ok {
				pp = &phasePool{}
				pool.phases[ph] = pp
			}
			rule := phaseRules[ph]
			// Per-phase series come straight off the dataset's phase index;
			// no sub-dataset is materialized.
			norm := shape.sizeScale(rule.sizeNorm)
			for _, sz := range ds.Sizes(ph) {
				pp.sizes = append(pp.sizes, sz*norm)
			}
			pp.inter = append(pp.inter, ds.InterArrivals(ph)...)
			first, _ := ds.PhaseSpan(ph)
			pp.offsets = append(pp.offsets, float64(first-r.StartNs)/1e9)
			if units, structural := shape.units(rule.unit); structural && units > 0 {
				pp.unitRatios = append(pp.unitRatios, float64(cnt)/units)
			}
			pp.count += float64(cnt)
			pp.volume += float64(ds.Volume(ph))
		}
		pool.totalBytes += float64(ds.Volume(""))
	}
	if totalInput > 0 {
		jm.BytesPerInputByte = pool.totalBytes / totalInput
	}
	return pool
}

// fitPhase fits one pooled (workload, phase): size law with atoms,
// inter-arrival law, start-offset law and the structural count scaling.
// It reads only its own pool (plus immutable workload totals), so any
// number of fitPhase tasks can run concurrently.
func fitPhase(ph flows.Phase, pp *phasePool, pool *workloadPool, opts FitOptions) (*PhaseModel, error) {
	// One sort covers range and atom extraction: atoms are contiguous
	// runs in the sorted sample, and what remains is still sorted, so the
	// size fit's own sort finds its input already in order.
	sizes := stats.NewSampleOwned(pp.sizes)
	pm := &PhaseModel{Samples: sizes.Len(), SizeNormalizer: phaseRules[ph].sizeNorm}
	pm.SizeMin, pm.SizeMax = sizes.Min(), sizes.Max()
	atoms, rest := extractAtoms(sizes.Values())
	pm.SizeAtoms = atoms
	// Without atoms the continuous part is the whole sample.
	cont := sizes
	if len(atoms) > 0 {
		cont = stats.NewSampleOwned(rest)
	}
	var err error
	pm.Size, pm.SizeGoF, pm.Candidates, err = fitLaw(cont, opts)
	if err != nil {
		return nil, fmt.Errorf("phase %s sizes: %w", ph, err)
	}
	pm.InterArrival, _, _, err = fitLaw(stats.NewSampleOwned(pp.inter), opts)
	if err != nil {
		return nil, fmt.Errorf("phase %s inter-arrivals: %w", ph, err)
	}
	pm.StartOffset, _, _, err = fitLaw(stats.NewSampleOwned(pp.offsets), opts)
	if err != nil {
		return nil, fmt.Errorf("phase %s offsets: %w", ph, err)
	}
	if pool.totalBytes > 0 {
		pm.VolumeShare = pp.volume / pool.totalBytes
	}
	pm.Unit = phaseRules[ph].unit
	pm.CountPerUnit = stats.Mean(pp.unitRatios)
	if pm.CountPerUnit == 0 {
		pm.Unit = "job"
		pm.CountPerUnit = pp.count / float64(pool.runs)
	}
	return pm, nil
}

// fitDurationLine least-squares-fits duration = a + b·input over the
// corpus runs. When the corpus does not span enough size variation to
// identify a slope (relative spread < 5%), it falls back to the
// proportional model (a=0, b=meanDur/meanInput).
func fitDurationLine(runs []*Run) (a, b float64) {
	n := float64(len(runs))
	var sx, sy, sxx, sxy float64
	for _, r := range runs {
		x := float64(r.InputBytes)
		y := r.DurationSeconds()
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	meanX := sx / n
	meanY := sy / n
	varX := sxx/n - meanX*meanX
	if meanX <= 0 || varX < (0.05*meanX)*(0.05*meanX) {
		if meanX > 0 {
			return 0, meanY / meanX
		}
		return meanY, 0
	}
	b = (sxy/n - meanX*meanY) / varX
	a = meanY - b*meanX
	// Clamp to sane territory: durations never shrink with input.
	if b < 0 {
		b = 0
		a = meanY
	}
	if a < 0 {
		a = 0
		b = meanY / meanX
	}
	return a, b
}

// DurationAt predicts the job duration for an input size using the
// fitted affine model (falling back to proportional scaling for models
// serialised before the line was recorded).
func (jm *JobModel) DurationAt(inputBytes int64) float64 {
	if jm.DurSecsPerByte > 0 || jm.DurIntercept > 0 {
		return jm.DurIntercept + jm.DurSecsPerByte*float64(inputBytes)
	}
	if jm.RefInputBytes > 0 {
		return jm.DurationSecs * float64(inputBytes) / float64(jm.RefInputBytes)
	}
	return jm.DurationSecs
}

// atomMinFraction is the sample share an exact repeated value must reach
// to become a point mass; atomMaxCount bounds the spike count.
const (
	atomMinFraction = 0.2
	atomMaxCount    = 2
)

// extractAtoms pulls dominant exact repeated values (block-sized HDFS
// flows, fixed-size RPCs) out of a size sample, returning the point
// masses and the remaining continuous sub-sample. xs must be sorted
// ascending: repeated values are then contiguous runs, so one linear
// scan replaces a value→count map, and the returned rest is itself
// still sorted.
func extractAtoms(xs []float64) ([]Atom, []float64) {
	if len(xs) < 5 {
		return nil, xs
	}
	minCount := int(atomMinFraction * float64(len(xs)))
	if minCount < 2 {
		minCount = 2
	}
	// Collect candidate runs above threshold; scanning sorted data yields
	// them in value order, which the weight sort below uses as tiebreak.
	type run struct {
		start, n int
	}
	var cands []run
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		if j-i >= minCount {
			cands = append(cands, run{start: i, n: j - i})
		}
		i = j
	}
	if len(cands) == 0 {
		return nil, xs
	}
	slices.SortFunc(cands, func(a, b run) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(xs[a.start], xs[b.start])
	})
	if len(cands) > atomMaxCount {
		cands = cands[:atomMaxCount]
	}
	atoms := make([]Atom, 0, len(cands))
	removed := 0
	for _, c := range cands {
		atoms = append(atoms, Atom{Value: xs[c.start], Weight: float64(c.n) / float64(len(xs))})
		removed += c.n
	}
	// Carve the chosen runs out positionally so rest stays sorted.
	byPos := append([]run(nil), cands...)
	slices.SortFunc(byPos, func(a, b run) int { return cmp.Compare(a.start, b.start) })
	rest := make([]float64, 0, len(xs)-removed)
	prev := 0
	for _, c := range byPos {
		rest = append(rest, xs[prev:c.start]...)
		prev = c.start + c.n
	}
	rest = append(rest, xs[prev:]...)
	return atoms, rest
}

// fitLaw selects the best distribution for a sample, degrading gracefully
// for small or degenerate samples. The sample is sorted exactly once — at
// construction by the caller — and its cached moments feed every
// candidate fit and goodness-of-fit statistic.
func fitLaw(s *stats.Sample, opts FitOptions) (stats.DistSpec, stats.GoFReport, []CandidateFit, error) {
	if s.Len() == 0 {
		c, _ := stats.NewConstant(0)
		return stats.Spec(c), stats.GoFReport{}, nil, nil
	}
	if s.Len() < opts.MinSamples {
		c, err := stats.NewConstant(s.Mean())
		if err != nil {
			return stats.DistSpec{}, stats.GoFReport{}, nil, err
		}
		return stats.Spec(c), sanitizeGoF(s.Evaluate(c)), nil, nil
	}
	best, all, err := s.SelectBest(opts.Candidates)
	if err != nil {
		// No candidate family could represent this sample (e.g. zeros
		// under an exponential-only candidate set). Degrade to a point
		// mass at the mean rather than failing the whole model.
		c, cerr := stats.NewConstant(s.Mean())
		if cerr != nil {
			return stats.DistSpec{}, stats.GoFReport{}, nil, cerr
		}
		return stats.Spec(c), sanitizeGoF(s.Evaluate(c)), nil, nil
	}
	cands := make([]CandidateFit, 0, len(all))
	for _, fr := range all {
		cf := CandidateFit{AIC: finiteOr(fr.AIC, 0), KS: finiteOr(fr.KS, 1)}
		if fr.Err != nil || !isFinite(fr.AIC) {
			cf.Failed = true
		}
		if fr.Dist != nil {
			cf.Family = fr.Dist.Family()
		}
		cands = append(cands, cf)
	}
	return stats.Spec(best), sanitizeGoF(s.Evaluate(best)), cands, nil
}

// isFinite reports whether x is a normal float (not NaN/±Inf).
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// finiteOr replaces non-finite values so the model stays JSON-encodable.
func finiteOr(x, fallback float64) float64 {
	if isFinite(x) {
		return x
	}
	return fallback
}

// sanitizeGoF scrubs non-finite goodness-of-fit values (degenerate
// likelihoods under Constant laws).
func sanitizeGoF(g stats.GoFReport) stats.GoFReport {
	g.KS = finiteOr(g.KS, 1)
	g.KSP = finiteOr(g.KSP, 0)
	g.CvM = finiteOr(g.CvM, 0)
	g.AD = finiteOr(g.AD, 0)
	g.AIC = finiteOr(g.AIC, 0)
	g.BIC = finiteOr(g.BIC, 0)
	g.LogLik = finiteOr(g.LogLik, 0)
	return g
}

// fitBackground models cluster-wide heartbeat traffic.
func fitBackground(ts *TraceSet, opts FitOptions) (*PhaseModel, error) {
	ds := ts.BackgroundDataset()
	pm := &PhaseModel{Samples: ds.Len(), Unit: "hostsecond"}
	sizes := ds.SizeSample("")
	pm.SizeMin, pm.SizeMax = sizes.Min(), sizes.Max()
	var err error
	pm.Size, pm.SizeGoF, pm.Candidates, err = fitLaw(sizes, opts)
	if err != nil {
		return nil, fmt.Errorf("background sizes: %w", err)
	}
	pm.InterArrival, _, _, err = fitLaw(ds.InterArrivalSample(""), opts)
	if err != nil {
		return nil, fmt.Errorf("background inter-arrivals: %w", err)
	}
	off, _ := stats.NewConstant(0)
	pm.StartOffset = stats.Spec(off)
	spanSecs := float64(ts.BackgroundSpanNs) / 1e9
	pm.CountPerUnit = float64(ds.Len()) / (spanSecs * float64(ts.BackgroundHosts))
	return pm, nil
}

// WriteJSON serialises the model library.
func (m *Model) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("encode model: %w", err)
	}
	return nil
}

// ErrBadModel marks model JSON that decodes but cannot be generated from:
// a null workload or phase model, or a non-positive reference size.
var ErrBadModel = errors.New("core: invalid model")

// ReadModel deserialises a model library. JSON that decodes into a model
// no generator could use fails with an error wrapping ErrBadModel.
func ReadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode model: %w", err)
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	return &m, nil
}

// check rejects the decoded shapes generation cannot use: a nil job or
// phase model, which it would dereference, or a non-positive reference
// input size, which every spec is scaled against. A zero reference
// block size is legal (FitWith writes it for runs without one);
// GenSpec.validateScaled refuses a request that leaves the block size to
// it. Problems are reported in sorted workload and phase order.
func (m *Model) check() error {
	for _, name := range m.WorkloadNames() {
		jm := m.Jobs[name]
		if jm == nil {
			return fmt.Errorf("%w: workload %q is null", ErrBadModel, name)
		}
		if jm.RefInputBytes <= 0 {
			return fmt.Errorf("%w: workload %q has reference input %d bytes, must be positive",
				ErrBadModel, name, jm.RefInputBytes)
		}
		phases := make([]flows.Phase, 0, len(jm.Phases))
		for ph := range jm.Phases {
			phases = append(phases, ph)
		}
		slices.Sort(phases)
		for _, ph := range phases {
			if jm.Phases[ph] == nil {
				return fmt.Errorf("%w: workload %q phase %q is null", ErrBadModel, name, ph)
			}
		}
	}
	return nil
}

// WorkloadNames lists the model's workloads sorted.
func (m *Model) WorkloadNames() []string {
	names := make([]string, 0, len(m.Jobs))
	for k := range m.Jobs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
