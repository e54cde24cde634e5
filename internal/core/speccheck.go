package core

import (
	"errors"
	"fmt"
	"math"

	"keddah/internal/sim"
)

// This file validates generation specs up front, so malformed requests —
// NaN rates smuggled in through JSON, negative sizes, worker counts that
// would explode structural scaling — fail fast with a typed error instead
// of surfacing as a deep generation failure (or an enormous allocation)
// minutes later. keddah-serve maps ErrBadSpec to HTTP 400.

// ErrBadSpec is the sentinel wrapped by every spec-validation failure.
var ErrBadSpec = errors.New("core: invalid spec")

// ErrScheduleTooLarge additionally marks a spec rejected only because its
// schedule would exceed the schedule limit, or start a flow past the
// latest time int64 nanoseconds can hold, so a server can report it as
// too large rather than malformed.
var ErrScheduleTooLarge = errors.New("core: schedule too large")

// SpecError reports one invalid spec field. It wraps ErrBadSpec, so
// errors.Is(err, ErrBadSpec) identifies validation failures without
// string matching.
type SpecError struct {
	Spec   string // "GenSpec" or "MixSpec"
	Field  string
	Reason string

	tooLarge bool // also matches ErrScheduleTooLarge
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("core: invalid spec: %s.%s %s", e.Spec, e.Field, e.Reason)
}

// Unwrap makes errors.Is(err, ErrBadSpec) true.
func (e *SpecError) Unwrap() error { return ErrBadSpec }

// Is makes errors.Is(err, ErrScheduleTooLarge) true for schedule-limit
// failures.
func (e *SpecError) Is(target error) bool { return e.tooLarge && target == ErrScheduleTooLarge }

// Structural-scaling guards. Counts above these bounds cannot describe a
// measured Hadoop deployment; they only arise from malformed or hostile
// requests, and admitting them turns one request into an
// out-of-memory-sized allocation.
const (
	maxSpecWorkers  = 1 << 20 // hosts traffic is spread over
	maxSpecJobs     = 1 << 20 // job instances per request
	maxSpecReducers = 1 << 20 // reduce fan-in
	maxSpecMaps     = 1 << 26 // map tasks (input/block ratio)
	maxMixArrivals  = 1 << 20 // expected arrivals in a mix window
	// maxSpecFlows bounds one schedule's length. A stream holds 32 bytes
	// per flow sampled and not yet emitted, so this caps it at 8 GiB and
	// Generate's result at 20 GiB; servers admit far less through their
	// own flow caps.
	maxSpecFlows = 1 << 28
)

// The schedule's slabs (schedule.go) store hosts as int32, and the merge
// indexes runs — at most maxRunsPerJob per job or mix arrival, plus the
// background — with an int, which is 32 bits on some platforms. These
// conversions fail to compile if a limit outgrows either, so raising one
// can never silently truncate a host or a run index.
const (
	maxRunsPerJob = 8 // at least len(flows.AllPhases); TestNarrowedFieldsFit checks

	_ = int32(maxSpecWorkers)
	_ = int32(maxSpecJobs*maxRunsPerJob + 1)
	_ = int32(maxMixArrivals*maxRunsPerJob + 1)
)

// tooManyFlows is the schedule-limit failure for a spec ("GenSpec" or
// "MixSpec") whose field scales the schedule to flows.
func tooManyFlows(spec, field string, flows float64) error {
	return &SpecError{Spec: spec, Field: field, tooLarge: true,
		Reason: fmt.Sprintf("implies %.0f flows, above the %d-flow schedule limit", flows, maxSpecFlows)}
}

// pastClock is the failure for a spec whose field would start a flow
// past sim.MaxTime, the latest time int64 nanoseconds can hold.
func pastClock(spec, field, what string) error {
	return &SpecError{Spec: spec, Field: field, tooLarge: true,
		Reason: fmt.Sprintf("%s, past the latest representable start time (%.4g s)", what, float64(sim.MaxTime)/1e9)}
}

func badFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func genErr(field, reason string) error {
	return &SpecError{Spec: "GenSpec", Field: field, Reason: reason}
}

func mixErr(field, reason string) error {
	return &SpecError{Spec: "MixSpec", Field: field, Reason: reason}
}

// Validate rejects malformed GenSpec fields. Zero values are legal
// (withDefaults fills them in); what is rejected is anything no default
// can repair: negative counts and sizes, non-finite stagger, and
// magnitudes whose structural scaling would overflow or exhaust memory.
// Generate calls this first, so every path — CLI, API, library — fails
// fast with an error wrapping ErrBadSpec.
func (g GenSpec) Validate() error {
	switch {
	case g.InputBytes < 0:
		return genErr("inputBytes", "is negative")
	case g.BlockSize < 0:
		return genErr("blockSize", "is negative")
	case g.Reducers < 0:
		return genErr("reducers", "is negative")
	case g.Reducers > maxSpecReducers:
		return genErr("reducers", fmt.Sprintf("%d exceeds the %d limit", g.Reducers, maxSpecReducers))
	case g.Workers < 0:
		return genErr("workers", "is negative")
	case g.Workers > maxSpecWorkers:
		return genErr("workers", fmt.Sprintf("%d exceeds the %d limit", g.Workers, maxSpecWorkers))
	case g.Jobs < 0:
		return genErr("jobs", "is negative")
	case g.Jobs > maxSpecJobs:
		return genErr("jobs", fmt.Sprintf("%d exceeds the %d limit", g.Jobs, maxSpecJobs))
	case badFloat(g.Stagger):
		return genErr("stagger", "is not finite")
	}
	if g.InputBytes > 0 && g.BlockSize > 0 {
		if g.InputBytes > math.MaxInt64-g.BlockSize {
			return genErr("inputBytes", "overflows the map count")
		}
		if maps := (g.InputBytes + g.BlockSize - 1) / g.BlockSize; maps > maxSpecMaps {
			return genErr("inputBytes", fmt.Sprintf("implies %d maps, above the %d limit", maps, maxSpecMaps))
		}
	}
	return nil
}

// validateScaled re-checks the structural bounds after model defaults
// were substituted (a request may omit BlockSize and still imply an
// absurd map count against the model's reference block size). A model
// fitted from runs without a block size has none to substitute, so such
// a request must name one.
func (g GenSpec) validateScaled() error {
	if g.BlockSize <= 0 {
		return genErr("blockSize", "is unset and the model has no reference block size")
	}
	if maps := (g.InputBytes + g.BlockSize - 1) / g.BlockSize; maps > maxSpecMaps {
		return genErr("inputBytes", fmt.Sprintf("implies %d maps at block size %d, above the %d limit", maps, g.BlockSize, maxSpecMaps))
	}
	if g.Reducers > maxSpecReducers {
		return genErr("reducers", fmt.Sprintf("scales to %d, above the %d limit", g.Reducers, maxSpecReducers))
	}
	return nil
}

// Validate rejects malformed MixSpec fields: non-finite or negative
// rates, windows and scales, weight values that are not finite or are
// negative, and rate×window products that would schedule an unbounded
// number of arrivals. GenerateMix calls this first.
func (m MixSpec) Validate() error {
	switch {
	case badFloat(m.JobsPerMinute):
		return mixErr("jobsPerMinute", "is not finite")
	case m.JobsPerMinute < 0:
		return mixErr("jobsPerMinute", "is negative")
	case badFloat(m.WindowSecs):
		return mixErr("windowSecs", "is not finite")
	case m.WindowSecs < 0:
		return mixErr("windowSecs", "is negative")
	case !(m.WindowSecs*1e9 < float64(sim.MaxTime)):
		return pastClock("MixSpec", "windowSecs", fmt.Sprintf("%.4g s admits arrivals", m.WindowSecs))
	case badFloat(m.InputScale):
		return mixErr("inputScale", "is not finite")
	case m.InputScale < 0:
		return mixErr("inputScale", "is negative")
	case m.Workers < 0:
		return mixErr("workers", "is negative")
	case m.Workers > maxSpecWorkers:
		return mixErr("workers", fmt.Sprintf("%d exceeds the %d limit", m.Workers, maxSpecWorkers))
	case len(m.Weights) == 0:
		return mixErr("weights", "needs at least one workload")
	}
	for name, w := range m.Weights {
		if badFloat(w) {
			return mixErr("weights", fmt.Sprintf("%q is not finite", name))
		}
		if w < 0 {
			return mixErr("weights", fmt.Sprintf("%q is negative", name))
		}
	}
	// Expected arrivals with defaults applied; a malformed rate must not
	// schedule millions of jobs.
	d := m.withDefaults()
	if arrivals := d.JobsPerMinute / 60 * d.WindowSecs; arrivals > maxMixArrivals {
		return mixErr("jobsPerMinute", fmt.Sprintf("implies ~%.0f arrivals over the window, above the %d limit", arrivals, maxMixArrivals))
	}
	return nil
}
