package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// fuzzSample decodes a fuzz byte string into a bounded, finite float
// sample (8 bytes per value, non-finite and extreme magnitudes dropped).
func fuzzSample(data []byte) []float64 {
	const maxN = 256
	var xs []float64
	for len(data) >= 8 && len(xs) < maxN {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			continue
		}
		xs = append(xs, v)
	}
	return xs
}

// FuzzSampleCDF checks the empirical CDF's defining properties on
// arbitrary samples: F is a non-decreasing map into [0,1] hitting 1 at
// the sample maximum, and quantiles stay inside the sample range.
func FuzzSampleCDF(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 4*8)
	for _, v := range []float64{1, 2, 2, 100} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzSample(data)
		e := NewSample(xs)
		if len(xs) == 0 {
			if e.Len() != 0 || e.At(0) != 0 || !math.IsNaN(e.Quantile(0.5)) {
				t.Fatalf("empty sample: Len %d, At(0) %v, median %v", e.Len(), e.At(0), e.Quantile(0.5))
			}
			return
		}
		if e.Len() != len(xs) {
			t.Fatalf("Len = %d, want %d", e.Len(), len(xs))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		prev := 0.0
		for _, x := range sorted {
			fx := e.At(x)
			if fx < prev || fx < 0 || fx > 1 {
				t.Fatalf("At(%v) = %v not monotone in [0,1] (prev %v)", x, fx, prev)
			}
			prev = fx
		}
		if got := e.At(hi); got != 1 {
			t.Fatalf("At(max) = %v, want 1", got)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			q := e.Quantile(p)
			if q < lo || q > hi {
				t.Fatalf("Quantile(%v) = %v outside sample range [%v, %v]", p, q, lo, hi)
			}
		}
	})
}

// FuzzFit checks that every family either rejects an arbitrary sample
// with an error or returns a distribution with finite parameters that
// survives the model file's codec (Spec → JSON → DistSpec.Build)
// bit-exactly.
func FuzzFit(f *testing.F) {
	seed := make([]byte, 0, 6*8)
	for _, v := range []float64{0.5, 1.5, 2.5, 4, 8, 16} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzSample(data)
		for _, fam := range []Family{
			FamilyExponential, FamilyNormal, FamilyLogNormal, FamilyGamma,
			FamilyWeibull, FamilyPareto, FamilyUniform, FamilyConstant,
		} {
			d, err := NewSample(xs).Fit(fam)
			if err != nil {
				continue
			}
			if d.Family() != fam {
				t.Fatalf("Fit(%s) returned family %s", fam, d.Family())
			}
			for i, p := range d.Params() {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("Fit(%s) param %d non-finite: %v (sample %v)", fam, i, p, xs)
				}
			}
			back, err := specRoundTrip(d)
			if err != nil {
				t.Fatalf("round trip fitted %s: %v", fam, err)
			}
			if back.Family() != d.Family() {
				t.Fatalf("round trip changed family: %s -> %s", d.Family(), back.Family())
			}
			bp, dp := back.Params(), d.Params()
			if len(bp) != len(dp) {
				t.Fatalf("round trip changed arity: %v -> %v", dp, bp)
			}
			for i := range dp {
				if bp[i] != dp[i] {
					t.Fatalf("round trip changed %s param %d: %v -> %v", fam, i, dp[i], bp[i])
				}
			}
		}
	})
}
