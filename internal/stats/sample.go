package stats

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Sample is the one sorted-sample type: the data sorted once at
// construction plus lazily cached moments (mean, variance, Σlog x). It
// is also the empirical CDF (At, Quantile, Points), and every fitter and
// goodness-of-fit statistic reads it, so one sort serves every candidate
// family and every metric — including across the parallel fit workers
// in internal/core (the lazy caches are synchronised, everything else is
// read-only after construction).
//
// Ownership rules: NewSample copies its input; NewSampleOwned takes
// ownership of the caller's slice, and the caller must not read or
// mutate it afterwards. Values() returns the internal sorted slice as a
// read-only view — mutating it breaks every cached moment and statistic
// derived from the Sample.
type Sample struct {
	sorted []float64

	momentsOnce sync.Once
	mom         moments

	logsOnce sync.Once
	logs     []float64 // ln(x) per sorted element; nil unless all positive
	logMom   logMoments
}

// moments holds the order-2 cache filled on first use.
type moments struct {
	mean     float64
	variance float64
}

// logMoments holds the log-domain cache filled on first use (only
// meaningful when the sample is strictly positive).
type logMoments struct {
	allPositive bool
	sumLog      float64 // Σ ln x
	meanLog     float64
	varLog      float64 // centered: Σ (ln x − meanLog)² / n
}

// NewSample copies xs, sorts the copy, and wraps it.
func NewSample(xs []float64) *Sample {
	s := make([]float64, len(xs))
	copy(s, xs)
	slices.Sort(s)
	return &Sample{sorted: s}
}

// NewSampleOwned takes ownership of xs, sorts it in place, and wraps it.
// The caller must not use xs afterwards.
func NewSampleOwned(xs []float64) *Sample {
	slices.Sort(xs)
	return &Sample{sorted: xs}
}

// Len returns the sample size.
func (s *Sample) Len() int { return len(s.sorted) }

// Values returns the sorted sample as a read-only view; do not modify.
func (s *Sample) Values() []float64 { return s.sorted }

// Min returns the smallest value (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[0]
}

// Max returns the largest value (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

func (s *Sample) moments() moments {
	s.momentsOnce.Do(func() {
		if len(s.sorted) == 0 {
			return
		}
		m := Mean(s.sorted)
		var v float64
		for _, x := range s.sorted {
			d := x - m
			v += d * d
		}
		s.mom = moments{mean: m, variance: v / float64(len(s.sorted))}
	})
	return s.mom
}

func (s *Sample) logMoments() ([]float64, logMoments) {
	s.logsOnce.Do(func() {
		n := len(s.sorted)
		if n == 0 || s.sorted[0] <= 0 {
			return // sorted: a non-positive minimum means not all positive
		}
		logs := make([]float64, n)
		var sum float64
		for i, x := range s.sorted {
			l := math.Log(x)
			logs[i] = l
			sum += l
		}
		meanLog := sum / float64(n)
		var varLog float64
		for _, l := range logs {
			d := l - meanLog
			varLog += d * d
		}
		s.logs = logs
		s.logMom = logMoments{
			allPositive: true,
			sumLog:      sum,
			meanLog:     meanLog,
			varLog:      varLog / float64(n),
		}
	})
	return s.logs, s.logMom
}

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.moments().mean }

// Variance returns the population variance.
func (s *Sample) Variance() float64 { return s.moments().variance }

// Std returns the population standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Variance()) }

// AllPositive reports whether every value is strictly positive.
func (s *Sample) AllPositive() bool {
	return len(s.sorted) > 0 && s.sorted[0] > 0
}

// SumLog returns Σ ln x (NaN when the sample has non-positive values).
func (s *Sample) SumLog() float64 {
	_, lm := s.logMoments()
	if !lm.allPositive {
		return math.NaN()
	}
	return lm.sumLog
}

// MeanLog returns the mean of ln x (NaN for non-positive samples).
func (s *Sample) MeanLog() float64 {
	_, lm := s.logMoments()
	if !lm.allPositive {
		return math.NaN()
	}
	return lm.meanLog
}

// VarLog returns the population variance of ln x (NaN for non-positive
// samples). It is computed centered, not as Σln²x/n − mean², so
// near-constant samples cannot cancel into a negative variance.
func (s *Sample) VarLog() float64 {
	_, lm := s.logMoments()
	if !lm.allPositive {
		return math.NaN()
	}
	return lm.varLog
}

// At returns the empirical CDF F_n(x) = (#samples ≤ x)/n (0 for an
// empty sample).
func (s *Sample) At(x float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.sorted, x)
	// SearchFloat64s returns the first index with sorted[i] >= x; advance
	// past equal values so the CDF is right-continuous ("≤").
	for i < len(s.sorted) && s.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(s.sorted))
}

// Quantile returns the nearest-rank p-quantile (NaN for an empty sample).
func (s *Sample) Quantile(p float64) float64 {
	n := len(s.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 1 {
		return s.sorted[n-1]
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.sorted[idx]
}

// Points returns the (x, F(x)) step points of the empirical CDF, one per
// distinct sample value — convenient for printing CDF series.
func (s *Sample) Points() (xs, fs []float64) {
	n := len(s.sorted)
	for i := 0; i < n; {
		j := i
		for j < n && s.sorted[j] == s.sorted[i] {
			j++
		}
		xs = append(xs, s.sorted[i])
		fs = append(fs, float64(j)/float64(n))
		i = j
	}
	return xs, fs
}

// Mean averages a slice (0 for empty). It is the single mean helper the
// rest of the toolchain shares; Sample.Mean caches it per sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
