package stats

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// sample draws n variates from d with a fixed seed.
func sample(d Distribution, n int, seed int64) []float64 {
	rng := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// TestFitRecoversParameters: for every family, fitting a large sample
// drawn from known parameters recovers them within a few percent.
func TestFitRecoversParameters(t *testing.T) {
	const n = 50000
	cases := []struct {
		make func() Distribution
		tol  float64
	}{
		{func() Distribution { d, _ := NewExponential(0.35); return d }, 0.03},
		{func() Distribution { d, _ := NewNormal(5, 2); return d }, 0.03},
		{func() Distribution { d, _ := NewLogNormal(1.5, 0.6); return d }, 0.03},
		{func() Distribution { d, _ := NewGamma(2.2, 3); return d }, 0.05},
		{func() Distribution { d, _ := NewWeibull(1.4, 2.5); return d }, 0.05},
		{func() Distribution { d, _ := NewPareto(2, 2.8); return d }, 0.05},
		{func() Distribution { d, _ := NewUniform(1, 9); return d }, 0.03},
	}
	for i, c := range cases {
		truth := c.make()
		xs := sample(truth, n, int64(100+i))
		got, err := NewSample(xs).Fit(truth.Family())
		if err != nil {
			t.Errorf("%s: fit: %v", truth, err)
			continue
		}
		wantP, gotP := truth.Params(), got.Params()
		for j := range wantP {
			rel := math.Abs(gotP[j]-wantP[j]) / (math.Abs(wantP[j]) + 1e-12)
			if rel > c.tol {
				t.Errorf("%s: param %d = %v, want %v (rel err %.3f)", truth, j, gotP[j], wantP[j], rel)
			}
		}
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := NewSample([]float64{1}).Fit(FamilyExponential); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("1 sample: err = %v, want ErrInsufficientData", err)
	}
	if _, err := NewSample([]float64{1, -2, 3}).Fit(FamilyLogNormal); !errors.Is(err, ErrUnsupportedData) {
		t.Errorf("negative sample for lognormal: err = %v, want ErrUnsupportedData", err)
	}
	if _, err := NewSample([]float64{0, 1, 2}).Fit(FamilyGamma); !errors.Is(err, ErrUnsupportedData) {
		t.Errorf("zero sample for gamma: err = %v, want ErrUnsupportedData", err)
	}
	if _, err := NewSample([]float64{3, 3, 3}).Fit(FamilyNormal); !errors.Is(err, ErrUnsupportedData) {
		t.Errorf("constant sample for normal: err = %v, want ErrUnsupportedData", err)
	}
	if _, err := NewSample([]float64{1, 2}).Fit(Family("bogus")); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestDegenerateSampleTyped(t *testing.T) {
	// A zero-variance sample is a distinct, typed failure — callers can
	// catch it and fall back to FamilyConstant — and it still satisfies
	// the broader ErrUnsupportedData contract.
	constant := []float64{5, 5, 5}
	for _, fam := range []Family{FamilyNormal, FamilyLogNormal, FamilyGamma, FamilyPareto, FamilyUniform} {
		_, err := NewSample(constant).Fit(fam)
		if !errors.Is(err, ErrDegenerateSample) {
			t.Errorf("%s on constant sample: err = %v, want ErrDegenerateSample", fam, err)
		}
		if !errors.Is(err, ErrUnsupportedData) {
			t.Errorf("%s: degenerate error does not wrap ErrUnsupportedData: %v", fam, err)
		}
	}
	// The designated fallback accepts the same sample.
	d, err := NewSample(constant).Fit(FamilyConstant)
	if err != nil {
		t.Fatalf("constant family rejected constant sample: %v", err)
	}
	if got := d.Mean(); got != 5 {
		t.Errorf("constant fit mean = %v, want 5", got)
	}
	// A spread-out sample must not trip the degenerate path.
	if _, err := NewSample([]float64{1, 2, 3}).Fit(FamilyNormal); err != nil {
		t.Errorf("normal fit on spread sample: %v", err)
	}
}

func TestSelectBestPicksGeneratingFamily(t *testing.T) {
	// With plenty of data, AIC selection should recover the generating
	// family (or an equivalent one) for distinctive shapes.
	lgn, _ := NewLogNormal(2, 0.9)
	xs := sample(lgn, 20000, 42)
	best, results, err := NewSample(xs).SelectBest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Family() != FamilyLogNormal {
		t.Errorf("best family = %s, want lognormal (results: %+v)", best.Family(), results[0])
	}
	// Results must be sorted by AIC.
	for i := 1; i < len(results); i++ {
		if results[i].AIC < results[i-1].AIC {
			t.Error("results not sorted by AIC")
		}
	}
}

func TestSelectBestConstantShortCircuit(t *testing.T) {
	xs := []float64{512, 512, 512, 512}
	best, _, err := NewSample(xs).SelectBest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Family() != FamilyConstant {
		t.Errorf("family = %s, want constant", best.Family())
	}
	if best.Mean() != 512 {
		t.Errorf("mean = %v, want 512", best.Mean())
	}
}

func TestSelectBestEmptySample(t *testing.T) {
	if _, _, err := NewSample(nil).SelectBest(nil); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}

func TestAICPrefersTrueModel(t *testing.T) {
	exp, _ := NewExponential(1.5)
	s := NewSample(sample(exp, 5000, 3))
	fitted, err := s.Fit(FamilyExponential)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := s.Fit(FamilyNormal)
	if err != nil {
		t.Fatal(err)
	}
	if s.AIC(fitted) >= s.AIC(wrong) {
		t.Errorf("AIC(exp)=%v not better than AIC(normal)=%v on exponential data",
			s.AIC(fitted), s.AIC(wrong))
	}
	if s.Evaluate(fitted).BIC >= s.Evaluate(wrong).BIC {
		t.Error("BIC did not prefer the generating family")
	}
}

// specRoundTrip passes d through the codec model files use: Spec, JSON,
// then DistSpec.Build.
func specRoundTrip(d Distribution) (Distribution, error) {
	blob, err := json.Marshal(Spec(d))
	if err != nil {
		return nil, err
	}
	var spec DistSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return nil, err
	}
	return spec.Build()
}

func TestCodecRoundTripAllFamilies(t *testing.T) {
	for _, d := range allDists(t) {
		back, err := specRoundTrip(d)
		if err != nil {
			t.Errorf("%s: round trip: %v", d, err)
			continue
		}
		if back.Family() != d.Family() {
			t.Errorf("family changed: %s -> %s", d.Family(), back.Family())
		}
		bp, dp := back.Params(), d.Params()
		for i := range dp {
			if bp[i] != dp[i] {
				t.Errorf("%s: param %d changed: %v -> %v", d, i, dp[i], bp[i])
			}
		}
	}
}

func TestCodecRejectsBadSpecs(t *testing.T) {
	bad := []DistSpec{
		{Family: "nope", Params: []float64{1}},
		{Family: FamilyNormal, Params: []float64{1}},        // wrong arity
		{Family: FamilyExponential, Params: []float64{-1}},  // invalid param
		{Family: FamilyUniform, Params: []float64{5, 5}},    // empty support
		{Family: FamilyGamma, Params: []float64{1, 2, 3}},   // extra param
		{Family: FamilyPareto, Params: []float64{0.0, 1.0}}, // xm=0
	}
	for _, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("spec %+v built successfully", s)
		}
	}
}
