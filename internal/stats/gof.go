package stats

import (
	"math"
	"sync"
)

// KSStatistic2Sorted returns the two-sample KS distance between a and b,
// which must be sorted ascending (Sample.Values is). Keddah uses it to
// compare measured flow statistics against traffic regenerated from the
// fitted model. An empty side yields 1. Unsorted input yields a wrong
// statistic.
func KSStatistic2Sorted(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	na, nb := float64(len(a)), float64(len(b))
	var i, j int
	var dmax float64
	for i < len(a) && j < len(b) {
		v := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= v {
			i++
		}
		for j < len(b) && b[j] <= v {
			j++
		}
		d := math.Abs(float64(i)/na - float64(j)/nb)
		if d > dmax {
			dmax = d
		}
	}
	return dmax
}

// KSPValue returns the asymptotic p-value for a one-sample KS statistic d
// with sample size n (Kolmogorov distribution with the Stephens small-n
// correction). Values below ~1e-12 are clamped to 0.
func KSPValue(d float64, n int) float64 {
	if n <= 0 || d <= 0 {
		return 1
	}
	sq := math.Sqrt(float64(n))
	lambda := (sq + 0.12 + 0.11/sq) * d
	return kolmogorovQ(lambda)
}

// KSPValue2 returns the asymptotic p-value of the two-sample KS statistic
// for sample sizes n and m.
func KSPValue2(d float64, n, m int) float64 {
	if n <= 0 || m <= 0 || d <= 0 {
		return 1
	}
	ne := float64(n) * float64(m) / float64(n+m)
	sq := math.Sqrt(ne)
	lambda := (sq + 0.12 + 0.11/sq) * d
	return kolmogorovQ(lambda)
}

// kolmogorovQ evaluates Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}.
func kolmogorovQ(lambda float64) float64 {
	if lambda < 1e-8 {
		return 1
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-14 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// GoFReport bundles the goodness-of-fit measures Keddah records for a
// chosen distribution.
type GoFReport struct {
	KS      float64 `json:"ks"`
	KSP     float64 `json:"ksPValue"`
	CvM     float64 `json:"cvm"`
	AD      float64 `json:"ad"`
	AIC     float64 `json:"aic"`
	BIC     float64 `json:"bic"`
	LogLik  float64 `json:"logLik"`
	Samples int     `json:"samples"`
}

// Evaluate computes a full goodness-of-fit report of d against the
// sample. The fitted CDF is evaluated once per data point and shared by
// the KS, CvM and AD statistics.
func (s *Sample) Evaluate(d Distribution) GoFReport {
	n := s.Len()
	ll := s.LogLikelihood(d)
	k := numParams(d)
	r := GoFReport{
		AIC:     2*k - 2*ll,
		BIC:     k*math.Log(float64(n)) - 2*ll,
		LogLik:  ll,
		Samples: n,
	}
	if n == 0 {
		return r
	}
	buf := cdfBufs.Get().(*[]float64)
	defer putCDF(buf)
	*buf = s.cdf(d, *buf)
	r.KS = ksFromCDF(*buf)
	r.KSP = KSPValue(r.KS, n)
	r.CvM = cvmFromCDF(*buf)
	r.AD = adFromCDF(*buf)
	return r
}

// cdfBufs recycles the CDF buffers Evaluate and SelectBest fill: a fit
// evaluates its samples one after another, and each would otherwise
// allocate a buffer as long as itself.
var cdfBufs = sync.Pool{New: func() any { return new([]float64) }}

// putCDF returns buf to cdfBufs unless it outgrew maxPooledCDF values.
// As fmt does with its printers, a large buffer is left to the GC, so
// that one large sample does not pin its scratch for the process's life.
func putCDF(buf *[]float64) {
	if cap(*buf) <= maxPooledCDF {
		cdfBufs.Put(buf)
	}
}

const maxPooledCDF = 8 << 10

// cdf evaluates d's CDF at every sorted value, reusing buf's storage
// when it is large enough.
func (s *Sample) cdf(d Distribution, buf []float64) []float64 {
	if cap(buf) < len(s.sorted) {
		buf = make([]float64, len(s.sorted))
	}
	buf = buf[:len(s.sorted)]
	for i, x := range s.sorted {
		buf[i] = d.CDF(x)
	}
	return buf
}

// ksFromCDF computes the one-sample KS distance D = sup_x |F_n(x) − F(x)|
// from the CDF values at the order statistics. It is the one KS walk:
// SelectBest and Evaluate both call it.
func ksFromCDF(cdf []float64) float64 {
	n := float64(len(cdf))
	var dmax float64
	for i, f := range cdf {
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > dmax {
			dmax = lo
		}
		if hi > dmax {
			dmax = hi
		}
	}
	return dmax
}

// cvmFromCDF computes the Cramér–von Mises statistic
// ω² = 1/(12n) + Σ ((2i−1)/(2n) − F(x_(i)))² from the CDF values at the
// order statistics.
func cvmFromCDF(cdf []float64) float64 {
	n := float64(len(cdf))
	sum := 1 / (12 * n)
	for i, f := range cdf {
		u := (2*float64(i) + 1) / (2 * n)
		diff := u - f
		sum += diff * diff
	}
	return sum
}

// adFromCDF computes the Anderson–Darling statistic A² from the CDF
// values at the order statistics (clamped away from {0,1} to keep the
// logs finite). Unlike KS, A² weights the tails heavily, which is where
// heavy-tailed traffic models go wrong.
func adFromCDF(cdf []float64) float64 {
	n := len(cdf)
	const eps = 1e-12
	sum := 0.0
	for i := 0; i < n; i++ {
		fi := clamp(cdf[i], eps, 1-eps)
		fj := clamp(cdf[n-1-i], eps, 1-eps)
		sum += (2*float64(i) + 1) * (math.Log(fi) + math.Log(1-fj))
	}
	return -float64(n) - sum/float64(n)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
