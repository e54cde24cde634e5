package core

import (
	"math"

	"keddah/internal/flows"
	"keddah/internal/stats"
)

// phaseRule is how one traffic phase scales with its job's structure and
// where its flows go: FitWith records its count unit and size
// normaliser, Generate places and ports its flows. Both evaluate a count
// unit through jobShape.units, on a captured run at fit time and on a
// generated job at generation time, so they cannot scale a phase apart.
type phaseRule struct {
	unit     string // count unit Fit records
	sizeNorm string // size normaliser Fit records ("" for none)
	portSide
	// place picks flow i's (src, dst) worker ordinals; -1 is the master.
	place func(h jobHosts, i int, rng *stats.RNG) (src, dst int)
}

var phaseRules = map[flows.Phase]phaseRule{
	// A map reads its split: replica host → mapper host.
	flows.PhaseHDFSRead: {unit: "block", portSide: portSide{port: flows.PortDataNodeData, portOnSrc: true},
		place: func(h jobHosts, i int, rng *stats.RNG) (int, int) {
			return rng.Intn(h.workers), h.mapHost(i % h.maps)
		}},
	// A writer (reducer or pipeline hop) → a datanode.
	flows.PhaseHDFSWrite: {unit: "block", portSide: portSide{port: flows.PortDataNodeData},
		place: func(h jobHosts, i int, rng *stats.RNG) (int, int) {
			return h.redHost(i % h.reducers), rng.Intn(h.workers)
		}},
	// The all-to-all over (map, reducer) pairs. A flow carries one map
	// output ÷ reducer count, so sizes are fitted ×reducers.
	flows.PhaseShuffle: {unit: "mapxreduce", sizeNorm: "reducers", portSide: portSide{port: flows.PortShuffle, portOnSrc: true},
		place: func(h jobHosts, i int, _ *stats.RNG) (int, int) {
			return h.mapHost(i % h.maps), h.redHost((i / h.maps) % h.reducers)
		}},
	flows.PhaseControl: {unit: "controlmix", portSide: portSide{port: flows.PortRMTracker}, place: toMaster},
	// Traffic on no known port has no structural driver.
	flows.PhaseOther: {unit: "job", portSide: portSide{port: flows.PortRMTracker}, place: toMaster},
}

// toMaster places a control exchange: a random worker → the master.
func toMaster(h jobHosts, _ int, rng *stats.RNG) (int, int) {
	return rng.Intn(h.workers), -1
}

// portSide is where a phase puts its ports: port is the well-known
// port, the source port when portOnSrc, and the other side takes an
// ephemeral port drawn per flow. It is the same for every flow of a
// run, so the schedule builder keeps it on the run and stores only the
// ephemeral port per flow.
type portSide struct {
	port      uint16
	portOnSrc bool
}

// ports is the (srcPort, dstPort) of a flow whose ephemeral port is eph,
// so that generated traffic classifies as its phase.
func (s portSide) ports(eph int) (int, int) {
	if s.portOnSrc {
		return int(s.port), eph
	}
	return eph, int(s.port)
}

// jobHosts places one generated job's tasks round-robin from a random
// rotation, the way a busy scheduler spreads containers: map i runs on
// host rot+i and reducer i on rot+7i+3. maps and reducers are at least 1.
type jobHosts struct{ rot, workers, maps, reducers int }

func (h jobHosts) mapHost(i int) int { return (h.rot + i) % h.workers }
func (h jobHosts) redHost(i int) int { return (h.rot + 7*i + 3) % h.workers }

// jobShape is the structure a count unit is evaluated on.
type jobShape struct {
	maps, reducers int
	blocks         int64
	durSecs        float64
}

// runShape is a captured run's structure.
func runShape(r *Run) jobShape {
	s := jobShape{maps: r.Maps, reducers: r.Reducers, durSecs: r.DurationSeconds()}
	if r.BlockSize > 0 {
		// Integral blocks: a 1.05-block input still has 2 splits.
		s.blocks = (r.InputBytes + r.BlockSize - 1) / r.BlockSize
	}
	return s
}

// units evaluates a count unit on s. "job" and any unknown unit count
// once per job and are not structural, so Fit divides nothing by them.
func (s jobShape) units(unit string) (n float64, structural bool) {
	switch unit {
	case "mapxreduce":
		return float64(s.maps * s.reducers), true
	case "block":
		return float64(s.blocks), true
	case "controlmix":
		// Per-task exchanges (launch, umbilical, completion ≈ 3/map +
		// 2/reducer) and per-block NameNode RPCs (maps is the block
		// count), plus per-second AM heartbeats.
		return 3*float64(s.maps) + 2*float64(s.reducers) + s.durSecs, true
	case "second", "hostsecond":
		// Only the background multiplies host-seconds by hosts.
		return s.durSecs, true
	}
	return 1, false
}

// count is a phase model's flow count for one job of shape s.
func (s jobShape) count(pm *PhaseModel) int {
	n, _ := s.units(pm.Unit)
	return int(math.Round(pm.CountPerUnit * n))
}

// sizeScale is the factor norm names on s: Fit multiplies sizes by it,
// generation divides by it.
func (s jobShape) sizeScale(norm string) float64 {
	if norm == "reducers" && s.reducers > 0 {
		return float64(s.reducers)
	}
	return 1
}
