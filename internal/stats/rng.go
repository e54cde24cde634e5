// Package stats provides the statistical machinery Keddah needs: a
// deterministic RNG, a library of continuous distributions with maximum
// likelihood fitting, empirical CDFs, and goodness-of-fit tests used to
// select the best model for each Hadoop traffic component.
package stats

import "math/rand"

// RNG is a deterministic pseudo-random source. Every stochastic component
// in the simulator draws from an RNG so that runs are reproducible from a
// single seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream. Children of the same parent in
// the same order are identical across runs.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns a unit-rate exponential variate.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
