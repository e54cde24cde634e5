package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKSStatisticZeroOnPerfectFit(t *testing.T) {
	// The ECDF of quantiles at (i-0.5)/n has minimal distance ~1/(2n).
	d, _ := NewExponential(1)
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Quantile((float64(i) + 0.5) / float64(n))
	}
	ks := NewSample(xs).Evaluate(d).KS
	if ks > 1.0/float64(n) {
		t.Errorf("KS = %v, want <= %v", ks, 1.0/float64(n))
	}
}

func TestKSDetectsWrongModel(t *testing.T) {
	exp, _ := NewExponential(1)
	nrm, _ := NewNormal(1, 1)
	xs := sample(exp, 5000, 9)
	s := NewSample(xs)
	ksGood := s.Evaluate(exp).KS
	ksBad := s.Evaluate(nrm).KS
	if ksGood >= ksBad {
		t.Errorf("KS(true)=%v >= KS(wrong)=%v", ksGood, ksBad)
	}
	if p := KSPValue(ksGood, len(xs)); p < 0.01 {
		t.Errorf("true-model p-value %v too small", p)
	}
	if p := KSPValue(ksBad, len(xs)); p > 1e-6 {
		t.Errorf("wrong-model p-value %v too large", p)
	}
}

// sortedKS2 sorts copies of a and b and compares them with
// KSStatistic2Sorted.
func sortedKS2(a, b []float64) float64 {
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	return KSStatistic2Sorted(sa, sb)
}

// TestSelectBestKSMatchesEvaluate pins the one KS walk: the distance
// SelectBest records per candidate is the one Evaluate reports.
func TestSelectBestKSMatchesEvaluate(t *testing.T) {
	g, _ := NewGamma(2, 3)
	s := NewSample(sample(g, 800, 6))
	_, all, err := s.SelectBest(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range all {
		if fr.Err != nil {
			continue
		}
		if want := s.Evaluate(fr.Dist).KS; fr.KS != want {
			t.Errorf("%s: SelectBest KS = %v, Evaluate KS = %v", fr.Dist, fr.KS, want)
		}
	}
}

func TestKSTwoSampleIdenticalIsZero(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if d := sortedKS2(xs, xs); d != 0 {
		t.Errorf("KS2(x,x) = %v, want 0", d)
	}
}

func TestKSTwoSampleDisjointIsOne(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	if d := sortedKS2(a, b); d != 1 {
		t.Errorf("KS2 disjoint = %v, want 1", d)
	}
}

func TestKSTwoSampleSameDistSmall(t *testing.T) {
	lgn, _ := NewLogNormal(1, 0.5)
	a := sample(lgn, 4000, 1)
	b := sample(lgn, 4000, 2)
	d := sortedKS2(a, b)
	if d > 0.05 {
		t.Errorf("same-law two-sample KS = %v, want small", d)
	}
	if p := KSPValue2(d, len(a), len(b)); p < 0.01 {
		t.Errorf("p-value %v too small for same-law samples", p)
	}
}

func TestKSTwoSampleEmpty(t *testing.T) {
	if d := sortedKS2(nil, []float64{1}); d != 1 {
		t.Errorf("KS2 with empty sample = %v, want 1", d)
	}
}

// Property: two-sample KS is symmetric and within [0,1].
func TestKSTwoSampleSymmetricProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		for _, v := range append(a, b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip pathological inputs
			}
		}
		d1 := sortedKS2(a, b)
		d2 := sortedKS2(b, a)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCvMOrdersModelsLikeKS(t *testing.T) {
	wbl, _ := NewWeibull(2, 3)
	s := NewSample(sample(wbl, 3000, 4))
	good, _ := s.Fit(FamilyWeibull)
	bad, _ := NewExponential(0.3)
	if s.Evaluate(good).CvM >= s.Evaluate(bad).CvM {
		t.Error("CvM did not prefer the fitted model")
	}
}

func TestEvaluateReportFields(t *testing.T) {
	d, _ := NewNormal(0, 1)
	xs := sample(d, 500, 5)
	rep := NewSample(xs).Evaluate(d)
	if rep.Samples != 500 {
		t.Errorf("samples = %d", rep.Samples)
	}
	if rep.KS <= 0 || rep.KS >= 1 {
		t.Errorf("KS = %v out of range", rep.KS)
	}
	if rep.KSP <= 0 || rep.KSP > 1 {
		t.Errorf("KSP = %v out of range", rep.KSP)
	}
	if rep.AIC <= 0 && rep.LogLik >= 0 {
		t.Error("inconsistent AIC/LogLik")
	}
}

func TestKolmogorovQLimits(t *testing.T) {
	if q := kolmogorovQ(0); q != 1 {
		t.Errorf("Q(0) = %v, want 1", q)
	}
	if q := kolmogorovQ(10); q > 1e-12 {
		t.Errorf("Q(10) = %v, want ~0", q)
	}
	// Known value: Q(0.83) ≈ 0.5 (median of the Kolmogorov law ~0.8276).
	if q := kolmogorovQ(0.8276); math.Abs(q-0.5) > 0.01 {
		t.Errorf("Q(0.8276) = %v, want ~0.5", q)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewSample([]float64{3, 1, 2, 2})
	if e.Len() != 4 {
		t.Fatalf("len = %d", e.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if q := e.Quantile(0.5); q != 2 {
		t.Errorf("median = %v, want 2", q)
	}
	xs, fs := e.Points()
	if len(xs) != 3 || fs[len(fs)-1] != 1 {
		t.Errorf("points = %v %v", xs, fs)
	}
}

func TestECDFQuantileEdges(t *testing.T) {
	e := NewSample([]float64{5, 1, 3})
	if e.Quantile(0) != 1 || e.Quantile(1) != 5 {
		t.Error("quantile edges wrong")
	}
}

// Regression: empty samples used to yield NaN-filled summaries; now
// Describe reports a typed error the caller can test for.
func TestEmptySampleTypedError(t *testing.T) {
	for _, xs := range [][]float64{nil, {}} {
		if s, err := NewSample(xs).Describe(); !errors.Is(err, ErrEmptySample) || s != (Summary{}) {
			t.Errorf("Describe(%v) = %+v, %v, want zero summary and ErrEmptySample", xs, s, err)
		}
	}
}

func TestDescribe(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	s, err := NewSample(xs).Describe()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Sum != 110 {
		t.Errorf("summary basics wrong: %+v", s)
	}
	if s.Mean != 22 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 != 3 {
		t.Errorf("median = %v", s.P50)
	}
	if s.Skewness <= 0 {
		t.Errorf("skewness = %v, want positive for right-skewed data", s.Skewness)
	}
	if math.IsNaN(s.GeometricMeanLog) {
		t.Error("geometric mean log should exist for positive data")
	}
	neg, err := NewSample([]float64{-1, 1}).Describe()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(neg.GeometricMeanLog) {
		t.Error("geometric mean log should be NaN with non-positive data")
	}
}

// Property: ECDF At is within [0,1] and monotone over sorted queries.
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, qs []float64) bool {
		for _, v := range append(xs, qs...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		e := NewSample(xs)
		sort.Float64s(qs)
		prev := -1.0
		for _, q := range qs {
			v := e.At(q)
			if v < 0 || v > 1 || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestADStatisticOrdersModels(t *testing.T) {
	lgn, _ := NewLogNormal(1, 0.6)
	s := NewSample(sample(lgn, 3000, 11))
	good, err := s.Fit(FamilyLogNormal)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := NewExponential(0.2)
	adGood := s.Evaluate(good).AD
	adBad := s.Evaluate(bad).AD
	if adGood >= adBad {
		t.Errorf("AD(true)=%v >= AD(wrong)=%v", adGood, adBad)
	}
	// Well-fitted A² is small (≲ a few units); wrong model is large.
	if adGood > 5 {
		t.Errorf("AD on true model = %v, want small", adGood)
	}
	if NewSample(nil).Evaluate(good).AD != 0 {
		t.Error("empty sample AD != 0")
	}
	// Samples outside the support stay finite (clamped logs).
	par, _ := NewPareto(10, 2)
	if v := NewSample([]float64{1, 2, 3}).Evaluate(par).AD; math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("AD with out-of-support sample = %v", v)
	}
}
