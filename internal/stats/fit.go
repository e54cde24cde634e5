package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a fit is attempted on too few
// samples to identify the family's parameters.
var ErrInsufficientData = errors.New("stats: insufficient data to fit")

// ErrUnsupportedData is returned when a family's support cannot contain the
// sample (e.g. non-positive values for a log-normal).
var ErrUnsupportedData = errors.New("stats: data outside family support")

// ErrDegenerateSample is returned when a sample has zero variance (all
// values equal), which no spread-parameterised family can fit by maximum
// likelihood. It wraps ErrUnsupportedData, so existing errors.Is checks
// keep matching; callers wanting the constant-sample case specifically
// can test for this error and fall back to FamilyConstant.
var ErrDegenerateSample = fmt.Errorf("%w: degenerate zero-variance sample", ErrUnsupportedData)

// Fit estimates the maximum-likelihood parameters of the given family,
// reading the sample's cached moments instead of re-scanning the data
// where the estimator allows it.
func (s *Sample) Fit(family Family) (Distribution, error) {
	if s.Len() < 2 {
		return nil, fmt.Errorf("%w: %d samples for %s", ErrInsufficientData, s.Len(), family)
	}
	switch family {
	case FamilyExponential:
		return fitExponential(s)
	case FamilyNormal:
		return fitNormal(s)
	case FamilyLogNormal:
		return fitLogNormal(s)
	case FamilyGamma:
		return fitGamma(s)
	case FamilyWeibull:
		return fitWeibull(s)
	case FamilyPareto:
		return fitPareto(s)
	case FamilyUniform:
		return fitUniform(s)
	case FamilyConstant:
		return fitConstant(s)
	default:
		return nil, fmt.Errorf("stats: unknown family %q", family)
	}
}

// positiveErrs pre-builds the per-family "requires positive samples"
// rejection. SelectBest probes every candidate family against every
// sample, so on data with zeros these errors fire on each call — a
// fmt.Errorf here dominated the allocation profile of model fitting.
var positiveErrs = map[Family]error{
	FamilyExponential: fmt.Errorf("%w: %s requires positive samples", ErrUnsupportedData, FamilyExponential),
	FamilyLogNormal:   fmt.Errorf("%w: %s requires positive samples", ErrUnsupportedData, FamilyLogNormal),
	FamilyGamma:       fmt.Errorf("%w: %s requires positive samples", ErrUnsupportedData, FamilyGamma),
	FamilyWeibull:     fmt.Errorf("%w: %s requires positive samples", ErrUnsupportedData, FamilyWeibull),
	FamilyPareto:      fmt.Errorf("%w: %s requires positive samples", ErrUnsupportedData, FamilyPareto),
}

func requirePositive(s *Sample, family Family) error {
	// The sample is sorted, so the minimum decides for everyone.
	if s.AllPositive() {
		return nil
	}
	if err, ok := positiveErrs[family]; ok {
		return err
	}
	return fmt.Errorf("%w: %s requires positive samples", ErrUnsupportedData, family)
}

// Degenerate-sample rejections, pre-built for the same reason as
// positiveErrs: they fire once per rejected candidate on every
// SelectBest call over constant-heavy samples.
var (
	errZeroVarNormal    = fmt.Errorf("%w: zero variance for normal", ErrDegenerateSample)
	errZeroVarLogNormal = fmt.Errorf("%w: zero log-variance for log-normal", ErrDegenerateSample)
	errGammaDegenerate  = fmt.Errorf("%w: gamma profile statistic not positive", ErrDegenerateSample)
	errWeibullBracket   = fmt.Errorf("%w: weibull shape did not bracket", ErrUnsupportedData)
	errParetoConstant   = fmt.Errorf("%w: pareto on constant sample", ErrDegenerateSample)
	errUniformConstant  = fmt.Errorf("%w: uniform on constant sample", ErrDegenerateSample)
)

func fitExponential(s *Sample) (Distribution, error) {
	if err := requirePositive(s, FamilyExponential); err != nil {
		return nil, err
	}
	return NewExponential(1 / s.Mean())
}

func fitNormal(s *Sample) (Distribution, error) {
	v := s.Variance()
	if v == 0 {
		return nil, errZeroVarNormal
	}
	return NewNormal(s.Mean(), math.Sqrt(v))
}

func fitLogNormal(s *Sample) (Distribution, error) {
	if err := requirePositive(s, FamilyLogNormal); err != nil {
		return nil, err
	}
	v := s.VarLog()
	if v == 0 {
		return nil, errZeroVarLogNormal
	}
	return NewLogNormal(s.MeanLog(), math.Sqrt(v))
}

// fitGamma uses the Minka/Choi-Wette closed-form start followed by Newton
// iterations on the profile likelihood in the shape parameter. Only the
// cached mean and log-mean are needed, so the iteration is O(1) per step.
func fitGamma(s *Sample) (Distribution, error) {
	if err := requirePositive(s, FamilyGamma); err != nil {
		return nil, err
	}
	m := s.Mean()
	sv := math.Log(m) - s.MeanLog()
	if sv <= 0 {
		// All values equal up to fp noise.
		return nil, errGammaDegenerate
	}
	k := (3 - sv + math.Sqrt((sv-3)*(sv-3)+24*sv)) / (12 * sv)
	for i := 0; i < 50; i++ {
		num := math.Log(k) - digamma(k) - sv
		den := 1/k - trigamma(k)
		next := k - num/den
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < 1e-12*k {
			k = next
			break
		}
		k = next
	}
	return NewGamma(k, m/k)
}

// fitWeibull solves the MLE shape equation by bisection (robust; the
// equation is monotone in k on (0,∞)). The cached per-element logs turn
// every x^k into a single exp, which roughly halves the cost of each of
// the ~40 bisection evaluations.
func fitWeibull(s *Sample) (Distribution, error) {
	if err := requirePositive(s, FamilyWeibull); err != nil {
		return nil, err
	}
	logs, lm := s.logMoments()
	n := float64(s.Len())
	meanLog := lm.meanLog

	// g(k) = Σ x^k ln x / Σ x^k − 1/k − meanLog; find g(k)=0.
	g := func(k float64) float64 {
		var sumXk, sumXkLog float64
		for _, l := range logs {
			xk := math.Exp(k * l)
			sumXk += xk
			sumXkLog += xk * l
		}
		return sumXkLog/sumXk - 1/k - meanLog
	}
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 {
		hi *= 2
		if hi > 1e6 {
			return nil, errWeibullBracket
		}
	}
	if g(lo) > 0 {
		return nil, errWeibullBracket
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*(1+hi) {
			break
		}
	}
	k := (lo + hi) / 2
	var sumXk float64
	for _, l := range logs {
		sumXk += math.Exp(k * l)
	}
	lambda := math.Pow(sumXk/n, 1/k)
	return NewWeibull(k, lambda)
}

func fitPareto(s *Sample) (Distribution, error) {
	if err := requirePositive(s, FamilyPareto); err != nil {
		return nil, err
	}
	xm := s.Min()
	if s.Max() == xm {
		return nil, errParetoConstant
	}
	// Σ log(x/xm) = Σ log x − n·log xm, both cached or O(1).
	sumLog := s.SumLog() - float64(s.Len())*math.Log(xm)
	if sumLog <= 0 {
		return nil, errParetoConstant
	}
	alpha := float64(s.Len()) / sumLog
	return NewPareto(xm, alpha)
}

func fitUniform(s *Sample) (Distribution, error) {
	if s.Min() == s.Max() {
		return nil, errUniformConstant
	}
	return NewUniform(s.Min(), s.Max())
}

func fitConstant(s *Sample) (Distribution, error) {
	return NewConstant(s.Mean())
}

// LogLikelihood returns the sample log likelihood under d.
func LogLikelihood(d Distribution, xs []float64) float64 {
	var ll float64
	for _, x := range xs {
		ll += d.LogPDF(x)
	}
	return ll
}

// LogLikelihood returns the sample log likelihood under d. For the
// built-in families it is computed from the cached sample moments —
// algebraically identical to summing LogPDF pointwise, but O(1) for
// most families (one exp per point for Weibull) instead of one or more
// transcendental calls per point. Unknown distribution types fall back
// to the generic pointwise sum.
func (s *Sample) LogLikelihood(d Distribution) float64 {
	n := float64(s.Len())
	if n == 0 {
		return 0
	}
	switch dd := d.(type) {
	case Exponential:
		// Σ [log λ − λx]; support x ≥ 0.
		if s.Min() < 0 {
			return math.Inf(-1)
		}
		return n*math.Log(dd.Rate) - dd.Rate*n*s.Mean()
	case Normal:
		// Σ(x−μ)² = Σ(x−x̄)² + n(x̄−μ)² (exact decomposition).
		dm := s.Mean() - dd.Mu
		ss := n * (s.Variance() + dm*dm)
		return -0.5*ss/(dd.Sigma*dd.Sigma) - n*math.Log(dd.Sigma) - 0.5*n*math.Log(2*math.Pi)
	case LogNormal:
		if !s.AllPositive() {
			return math.Inf(-1)
		}
		dm := s.MeanLog() - dd.Mu
		ss := n * (s.VarLog() + dm*dm)
		return -0.5*ss/(dd.Sigma*dd.Sigma) - s.SumLog() - n*math.Log(dd.Sigma) - 0.5*n*math.Log(2*math.Pi)
	case Gamma:
		if !s.AllPositive() {
			return math.Inf(-1)
		}
		lg, _ := math.Lgamma(dd.Shape)
		return (dd.Shape-1)*s.SumLog() - n*s.Mean()/dd.Scale - n*lg - n*dd.Shape*math.Log(dd.Scale)
	case Weibull:
		if !s.AllPositive() {
			return math.Inf(-1)
		}
		logs, _ := s.logMoments()
		logScale := math.Log(dd.Scale)
		var sumZk float64
		for _, l := range logs {
			sumZk += math.Exp(dd.Shape * (l - logScale))
		}
		return n*math.Log(dd.Shape/dd.Scale) + (dd.Shape-1)*(s.SumLog()-n*logScale) - sumZk
	case Pareto:
		// Support x ≥ xm (> 0, so the log cache applies).
		if s.Min() < dd.Xm {
			return math.Inf(-1)
		}
		return n*math.Log(dd.Alpha) + n*dd.Alpha*math.Log(dd.Xm) - (dd.Alpha+1)*s.SumLog()
	case Uniform:
		if s.Min() < dd.A || s.Max() > dd.B {
			return math.Inf(-1)
		}
		return -n * math.Log(dd.B-dd.A)
	case Constant:
		// Sorted: every value equals dd.Value iff min and max do.
		if s.Min() == dd.Value && s.Max() == dd.Value {
			return 0
		}
		return math.Inf(-1)
	default:
		return LogLikelihood(d, s.sorted)
	}
}

// numParams returns the parameter count of a distribution without the
// slice allocation d.Params() costs — AIC/BIC sit in the model-selection
// inner loop, where one alloc per call adds up.
func numParams(d Distribution) float64 {
	switch d.(type) {
	case Exponential, Constant:
		return 1
	case Normal, LogNormal, Gamma, Weibull, Pareto, Uniform:
		return 2
	default:
		return float64(len(d.Params()))
	}
}

// AIC returns Akaike's information criterion (lower is better).
func (s *Sample) AIC(d Distribution) float64 {
	return 2*numParams(d) - 2*s.LogLikelihood(d)
}

// FitResult records one candidate fit during model selection.
type FitResult struct {
	Dist Distribution
	// AIC of the fit (lower better). +Inf if the likelihood degenerated.
	AIC float64
	// KS is the one-sample Kolmogorov–Smirnov distance against the data.
	KS float64
	// Err is non-nil when the family could not be fitted to this sample.
	Err error
}

// DefaultCandidates is the family set Keddah considers for continuous
// traffic statistics, mirroring the paper's empirical-model search.
// Uniform is deliberately excluded: its MLE support hugs the sample
// min/max, which wins AIC on clustered data but generalises terribly
// (generated flows spread evenly where measured ones cluster). Callers
// that want it can pass an explicit candidate list.
var DefaultCandidates = []Family{
	FamilyExponential,
	FamilyNormal,
	FamilyLogNormal,
	FamilyGamma,
	FamilyWeibull,
	FamilyPareto,
}

// relSpread is the coefficient-of-variation threshold under which a sample
// is treated as deterministic and modelled by a Constant.
const relSpread = 1e-6

// SelectBest fits every candidate family against the sample — sorted
// once, moments shared across families — and returns the winner by AIC,
// along with all per-family results (sorted best-first). Near-constant
// samples short-circuit to a Constant law, which no continuous family
// can represent.
func (s *Sample) SelectBest(candidates []Family) (Distribution, []FitResult, error) {
	if s.Len() == 0 {
		return nil, nil, ErrInsufficientData
	}
	if len(candidates) == 0 {
		candidates = DefaultCandidates
	}
	m := s.Mean()
	sd := s.Std()
	if s.Len() < 2 || (m != 0 && sd/math.Abs(m) < relSpread) || sd == 0 {
		c, err := NewConstant(m)
		if err != nil {
			return nil, nil, err
		}
		return c, []FitResult{{Dist: c, AIC: math.Inf(-1)}}, nil
	}

	results := make([]FitResult, 0, len(candidates))
	buf := cdfBufs.Get().(*[]float64) // one CDF buffer serves every candidate's KS walk
	defer putCDF(buf)
	for _, fam := range candidates {
		d, err := s.Fit(fam)
		if err != nil {
			results = append(results, FitResult{Err: err, AIC: math.Inf(1), KS: 1})
			continue
		}
		aic := s.AIC(d)
		if math.IsNaN(aic) {
			aic = math.Inf(1)
		}
		*buf = s.cdf(d, *buf)
		results = append(results, FitResult{Dist: d, AIC: aic, KS: ksFromCDF(*buf)})
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].AIC < results[j].AIC })
	if results[0].Err != nil || math.IsInf(results[0].AIC, 1) {
		return nil, results, fmt.Errorf("%w: no candidate family fit", ErrUnsupportedData)
	}
	return results[0].Dist, results, nil
}
