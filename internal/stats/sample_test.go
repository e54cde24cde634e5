package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// naiveMoments recomputes every cached Sample moment directly from the
// raw data, with none of the Sample's caching or shortcuts.
type naiveMoments struct {
	min, max    float64
	mean, vari  float64
	allPositive bool
	sumLog      float64
	meanLog     float64
	varLog      float64
}

func computeNaive(xs []float64) naiveMoments {
	var nm naiveMoments
	n := float64(len(xs))
	if len(xs) == 0 {
		return nm
	}
	nm.min, nm.max = xs[0], xs[0]
	var sum float64
	nm.allPositive = true
	for _, x := range xs {
		if x < nm.min {
			nm.min = x
		}
		if x > nm.max {
			nm.max = x
		}
		sum += x
		if x <= 0 {
			nm.allPositive = false
		}
	}
	nm.mean = sum / n
	for _, x := range xs {
		d := x - nm.mean
		nm.vari += d * d
	}
	nm.vari /= n
	if !nm.allPositive {
		nm.sumLog = math.NaN()
		nm.meanLog = math.NaN()
		nm.varLog = math.NaN()
		return nm
	}
	for _, x := range xs {
		nm.sumLog += math.Log(x)
	}
	nm.meanLog = nm.sumLog / n
	for _, x := range xs {
		d := math.Log(x) - nm.meanLog
		nm.varLog += d * d
	}
	nm.varLog /= n
	return nm
}

// checkMoments compares every cached accessor of s against the naive
// recomputation within a relative tolerance (the Sample caches sum in
// sorted order, the naive pass in input order, so bit equality is not
// guaranteed for ill-conditioned samples).
func checkMoments(t *testing.T, s *Sample, xs []float64) {
	t.Helper()
	nm := computeNaive(xs)
	close := func(name string, got, want float64) {
		t.Helper()
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("%s = %v, want NaN", name, got)
			}
			return
		}
		tol := 1e-9 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("%s = %v, want %v (±%v)", name, got, want, tol)
		}
	}
	if s.Len() != len(xs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(xs))
	}
	if len(xs) == 0 {
		return
	}
	if s.Min() != nm.min || s.Max() != nm.max {
		t.Fatalf("Min/Max = %v/%v, want %v/%v", s.Min(), s.Max(), nm.min, nm.max)
	}
	if s.AllPositive() != nm.allPositive {
		t.Fatalf("AllPositive = %v, want %v", s.AllPositive(), nm.allPositive)
	}
	close("Mean", s.Mean(), nm.mean)
	close("Variance", s.Variance(), nm.vari)
	close("Std", s.Std(), math.Sqrt(nm.vari))
	close("SumLog", s.SumLog(), nm.sumLog)
	close("MeanLog", s.MeanLog(), nm.meanLog)
	close("VarLog", s.VarLog(), nm.varLog)
	if s.VarLog() < 0 {
		t.Fatalf("VarLog = %v negative (centering failed)", s.VarLog())
	}
}

func TestSampleCachedMomentsMatchNaive(t *testing.T) {
	cases := [][]float64{
		{},
		{3},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{2, 2, 2, 2},
		{-1, 0, 1},
		{1e-9, 1e9, 3.5, 42},
		{1 + 1e-12, 1, 1 - 1e-12}, // near-constant: centered VarLog must not go negative
	}
	for _, xs := range cases {
		orig := append([]float64(nil), xs...)
		checkMoments(t, NewSample(xs), orig)
		owned := append([]float64(nil), orig...)
		checkMoments(t, NewSampleOwned(owned), orig)
	}
}

func TestSampleConstructorsOwnership(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := NewSample(xs)
	if xs[0] != 3 {
		t.Fatal("NewSample mutated its input")
	}
	if got := s.Values(); !slices.IsSorted(got) {
		t.Fatalf("NewSample values not sorted: %v", got)
	}

	owned := []float64{3, 1, 2}
	so := NewSampleOwned(owned)
	if got := so.Values(); !slices.IsSorted(got) {
		t.Fatalf("NewSampleOwned values not sorted: %v", got)
	}
	if so.Min() != 1 || so.Max() != 3 {
		t.Fatalf("Min/Max = %v/%v, want 1/3", so.Min(), so.Max())
	}
}

// TestSampleECDFSharesData checks that the empirical CDF reads the
// sample's own sorted data: quantiles are its order statistics and At
// counts ranks in it. An empty sample has no quantiles and F ≡ 0.
func TestSampleECDFSharesData(t *testing.T) {
	s := NewSample([]float64{4, 1, 3, 2})
	vs := s.Values()
	if s.Len() != 4 || s.Quantile(0.5) != vs[1] || s.Quantile(0.99) != vs[3] {
		t.Fatalf("Len/median/p99 = %d/%v/%v, sorted %v", s.Len(), s.Quantile(0.5), s.Quantile(0.99), vs)
	}
	for i, v := range vs {
		if got, want := s.At(v), float64(i+1)/4; got != want {
			t.Fatalf("At(%v) = %v, want %v", v, got, want)
		}
	}
	empty := NewSample(nil)
	if !math.IsNaN(empty.Quantile(0.5)) || empty.At(1) != 0 {
		t.Fatalf("empty sample: Quantile = %v, At = %v; want NaN, 0", empty.Quantile(0.5), empty.At(1))
	}
	if xs, fs := empty.Points(); xs != nil || fs != nil {
		t.Fatalf("empty sample Points = %v %v", xs, fs)
	}
}

// TestSampleMomentsRaceSafe hammers the lazy caches from many goroutines;
// run with -race this proves the sync.Once guards are sufficient for the
// parallel fit pool.
func TestSampleMomentsRaceSafe(t *testing.T) {
	s := NewSample([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			_ = s.Mean()
			_ = s.Variance()
			_ = s.SumLog()
			_ = s.VarLog()
			_, _ = s.Fit(FamilyWeibull)
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestMeanHelper(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

// bruteKS2 is the two-sample KS distance by definition: at every pooled
// value v, |#{a ≤ v}/na − #{b ≤ v}/nb|, maximised. An empty side gives
// 1, the convention KSStatistic2Sorted documents.
func bruteKS2(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	le := func(xs []float64, v float64) float64 {
		n := 0
		for _, x := range xs {
			if x <= v {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	var dmax float64
	for _, v := range append(append([]float64(nil), a...), b...) {
		if d := math.Abs(le(a, v) - le(b, v)); d > dmax {
			dmax = d
		}
	}
	return dmax
}

// TestKSStatistic2SortedMatchesBruteForce checks the merge walk against
// the definition, exactly, on seeded samples drawn from a small integer
// grid (so values repeat within a sample and tie across the two), on
// continuous samples, and with an empty side.
func TestKSStatistic2SortedMatchesBruteForce(t *testing.T) {
	rng := NewRNG(11)
	draw := func(n int, grid bool, shift float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			if grid {
				xs[i] = float64(rng.Intn(6)) + shift
			} else {
				xs[i] = rng.NormFloat64() + shift
			}
		}
		slices.Sort(xs)
		return xs
	}
	for trial := 0; trial < 60; trial++ {
		grid := trial%2 == 0
		a := draw(1+trial%17, grid, 0)
		b := draw(1+(trial*7)%23, grid, float64(trial%3)/2)
		if trial%10 == 9 {
			b = nil
		}
		for _, pair := range [][2][]float64{{a, b}, {b, a}} {
			got, want := KSStatistic2Sorted(pair[0], pair[1]), bruteKS2(pair[0], pair[1])
			if got != want {
				t.Fatalf("trial %d: KSStatistic2Sorted(%v, %v) = %v, brute force %v", trial, pair[0], pair[1], got, want)
			}
		}
	}
}

// FuzzSampleMoments feeds arbitrary samples through the Sample cache and
// cross-checks every moment against direct recomputation (same decoder
// and seed shape as FuzzFit).
func FuzzSampleMoments(f *testing.F) {
	seed := make([]byte, 0, 6*8)
	for _, v := range []float64{0.5, 1.5, 2.5, 4, 8, 16} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{})
	neg := make([]byte, 0, 3*8)
	for _, v := range []float64{-1, 0, 2} {
		neg = binary.LittleEndian.AppendUint64(neg, math.Float64bits(v))
	}
	f.Add(neg)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzSample(data)
		orig := append([]float64(nil), xs...)
		checkMoments(t, NewSample(xs), orig)
	})
}

// TestSampleLogLikelihoodMatchesPointwise verifies the moment-based
// per-family likelihoods against the generic pointwise LogPDF sum.
func TestSampleLogLikelihoodMatchesPointwise(t *testing.T) {
	rng := NewRNG(5)
	samples := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{0.5, 1.5, 2.5, 4, 8, 16, 32, 64},
		{-2, -1, 0, 1, 2, 3},
		{2, 2, 2, 2, 2},
	}
	big := make([]float64, 500)
	for i := range big {
		big[i] = math.Exp(rng.NormFloat64())
	}
	samples = append(samples, big)

	var dists []Distribution
	mk := func(d Distribution, err error) {
		if err != nil {
			t.Fatal(err)
		}
		dists = append(dists, d)
	}
	mk(NewExponential(0.5))
	mk(NewNormal(1.5, 2))
	mk(NewLogNormal(0.2, 0.8))
	mk(NewGamma(2.5, 1.2))
	mk(NewWeibull(1.7, 3))
	mk(NewPareto(0.5, 1.3))
	mk(NewUniform(-5, 100))
	mk(NewUniform(0.4, 3))
	mk(NewConstant(2))

	for si, xs := range samples {
		s := NewSample(xs)
		for _, d := range dists {
			want := LogLikelihood(d, xs)
			got := s.LogLikelihood(d)
			if math.IsInf(want, -1) || math.IsInf(got, -1) {
				if got != want {
					t.Fatalf("sample %d, %v: LogLikelihood = %v, want %v", si, d, got, want)
				}
				continue
			}
			tol := 1e-6 * (1 + math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("sample %d, %v: LogLikelihood = %v, want %v (±%v)", si, d, got, want, tol)
			}
			if aic := s.AIC(d); math.Abs(aic-(2*float64(len(d.Params()))-2*got)) > 1e-12*(1+math.Abs(aic)) {
				t.Fatalf("sample %d, %v: AIC inconsistent with LogLikelihood", si, d)
			}
		}
	}
}
