package stats

import (
	"errors"
	"math"
)

// ErrEmptySample is returned by Describe on a sample with no
// observations, so callers can detect the empty case with errors.Is.
var ErrEmptySample = errors.New("stats: empty sample")

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                int     `json:"n"`
	Mean             float64 `json:"mean"`
	Std              float64 `json:"std"`
	Min              float64 `json:"min"`
	P25, P50, P75    float64 `json:"-"`
	P90, P95, P99    float64 `json:"-"`
	Max              float64 `json:"max"`
	Sum              float64 `json:"sum"`
	CoefOfVariation  float64 `json:"cv"`
	Skewness         float64 `json:"skewness"`
	ExcessKurtosis   float64 `json:"kurtosis"`
	GeometricMeanLog float64 `json:"geoMeanLog"` // mean of ln(x) for positive samples; NaN otherwise
}

// Describe computes descriptive statistics of the sample, reading the
// cached moments. An empty sample returns ErrEmptySample.
func (sa *Sample) Describe() (Summary, error) {
	var s Summary
	s.N = sa.Len()
	if s.N == 0 {
		return s, ErrEmptySample
	}
	s.Min = sa.Min()
	s.Max = sa.Max()
	s.P25 = sa.Quantile(0.25)
	s.P50 = sa.Quantile(0.50)
	s.P75 = sa.Quantile(0.75)
	s.P90 = sa.Quantile(0.90)
	s.P95 = sa.Quantile(0.95)
	s.P99 = sa.Quantile(0.99)
	m := sa.Mean()
	s.Mean = m
	for _, x := range sa.sorted {
		s.Sum += x
	}
	v := sa.Variance()
	s.Std = math.Sqrt(v)
	if m != 0 {
		s.CoefOfVariation = s.Std / math.Abs(m)
	}
	if v > 0 {
		var m3, m4 float64
		for _, x := range sa.sorted {
			d := x - m
			m3 += d * d * d
			m4 += d * d * d * d
		}
		n := float64(s.N)
		m3 /= n
		m4 /= n
		s.Skewness = m3 / math.Pow(v, 1.5)
		s.ExcessKurtosis = m4/(v*v) - 3
	}
	s.GeometricMeanLog = math.NaN()
	if sa.AllPositive() {
		s.GeometricMeanLog = sa.MeanLog()
	}
	return s, nil
}
