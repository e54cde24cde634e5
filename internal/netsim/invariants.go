package netsim

import (
	"fmt"
	"math"
	"slices"
)

// This file holds the read-only state checks consumed by the
// internal/invariants layer. Both entry points are strictly observational:
// they allocate only local scratch, draw no randomness, and schedule no
// events, so a checked run's trajectory is identical to an unchecked one.

// VerifyState checks the structural invariants of the active flow set:
// the active list and the per-link flow index agree with each other (each
// list in active-list order, the loaded-link list exact), no active flow
// crosses a downed link (SetLinkState reroutes or aborts victims
// synchronously, so this holds even while a reallocation is pending), and
// every flow's residue is within [0, SizeBytes]. When no
// reallocation is pending it additionally verifies the allocation itself
// via CheckInvariants (capacity and bottleneck conditions).
func (n *Network) VerifyState() error {
	if err := n.soa.verifyState(); err != nil {
		return err
	}
	if n.soa.tcp != nil {
		if err := n.soa.tcp.verify(); err != nil {
			return err
		}
	}
	if n.reallocPendingNow() {
		// Rates are stale until the coalesced dirty event fires at this
		// same timestamp; the allocation conditions are not meaningful yet.
		return nil
	}
	return n.CheckInvariants()
}

func (c *soaCore) verifyState() error {
	for i, s := range c.active {
		if int(c.listIdx[s]) != i {
			return fmt.Errorf("netsim: flow %d listIdx %d but held at position %d", c.fid[s], c.listIdx[s], i)
		}
		if c.state[s] != slotActive {
			return fmt.Errorf("netsim: flow %d in active set but state %d (done, free or not yet active)", c.fid[s], c.state[s])
		}
		if c.remaining[s] < 0 || c.remaining[s] > float64(c.spec[s].SizeBytes) {
			return fmt.Errorf("netsim: flow %d remaining %.3g outside [0, %d]", c.fid[s], c.remaining[s], c.spec[s].SizeBytes)
		}
		for _, lid := range c.path(s) {
			if c.topo.linkDown[lid] {
				return fmt.Errorf("netsim: flow %d active on downed link %d", c.fid[s], lid)
			}
			if !slices.Contains(c.linkFlows[lid], s) {
				return fmt.Errorf("netsim: flow %d missing from link %d's index", c.fid[s], lid)
			}
		}
	}
	// Every per-link list holds active slots in strictly ascending listIdx
	// (the allocator's freeze order), and loaded names exactly the links
	// whose list is non-empty.
	indexed, nLoaded := 0, 0
	for l, lst := range c.linkFlows {
		for j, s := range lst {
			if c.state[s] != slotActive {
				return fmt.Errorf("netsim: link %d index holds slot %d in state %d", l, s, c.state[s])
			}
			if j > 0 && c.listIdx[lst[j-1]] >= c.listIdx[s] {
				return fmt.Errorf("netsim: link %d index out of active-list order at entry %d", l, j)
			}
		}
		indexed += len(lst)
		p := c.loadedPos[l]
		switch {
		case len(lst) == 0 && p != -1:
			return fmt.Errorf("netsim: empty link %d marked loaded at %d", l, p)
		case len(lst) > 0 && (p < 0 || int(p) >= len(c.loaded) || c.loaded[p] != LinkID(l)):
			return fmt.Errorf("netsim: loaded link %d missing from the loaded list (pos %d)", l, p)
		}
		if len(lst) > 0 {
			nLoaded++
		}
	}
	if nLoaded != len(c.loaded) {
		return fmt.Errorf("netsim: loaded list holds %d links, %d carry flows", len(c.loaded), nLoaded)
	}
	pathSum := 0
	for _, s := range c.active {
		pathSum += int(c.pathLen[s])
	}
	if indexed != pathSum {
		return fmt.Errorf("netsim: per-link index holds %d entries, active paths cover %d", indexed, pathSum)
	}
	// Slot accounting: every slot is exactly one of free-listed, in the
	// active list, or mid-lifecycle (propagating/loopback).
	inFree := 0
	for _, s := range c.freeSlots {
		if c.state[s] != slotFree {
			return fmt.Errorf("netsim: slot %d on the free list but in state %d", s, c.state[s])
		}
		inFree++
	}
	nFree := 0
	for s := range c.state {
		if c.state[s] == slotFree {
			nFree++
		}
	}
	if inFree != nFree {
		return fmt.Errorf("netsim: %d slots marked free but %d on the free list", nFree, inFree)
	}
	return nil
}

// CheckAllocatorOracle recomputes the allocation from scratch with
// maxMinRates and compares it, within rateTolerance, against the rates the
// production allocator installed: plain max-min in fluid mode, and max-min
// with every flow capped at its window demand (cwnd/srtt) in TCP mode. It
// returns nil under the equal-split ablation allocator (which is not
// max-min), while a reallocation is pending (the installed rates are
// intentionally stale), or when the two vectors agree.
func (n *Network) CheckAllocatorOracle() error {
	c := n.soa
	if n.reallocPendingNow() || len(c.active) == 0 {
		return nil
	}
	if c.tcp == nil && n.cfg.Allocator != AllocMaxMin {
		return nil
	}
	paths := make([][]LinkID, len(c.active))
	demand := make([]float64, len(c.active))
	for i, s := range c.active {
		paths[i] = c.path(s)
		demand[i] = math.Inf(1)
		if c.tcp != nil {
			demand[i] = c.tcp.demand[s]
		}
	}
	capacity := make([]float64, len(n.topo.links))
	for i, l := range n.topo.links {
		capacity[i] = l.CapacityBps
	}
	want := maxMinRates(paths, capacity, demand, n.cfg.LoopbackBps)
	for i, s := range c.active {
		if !rateEqual(c.rate[s], want[i]) {
			return fmt.Errorf("netsim: flow %d rate %.6g bps diverges from max-min oracle %.6g bps", c.fid[s], c.rate[s], want[i])
		}
	}
	return nil
}

// maxMinRates is the from-scratch max-min oracle. Given every flow's path,
// the link capacities and a per-flow demand cap (+Inf when uncapped, as in
// fluid mode), it returns the max-min fair rate vector. Each round
// recomputes every link's residual capacity and unfrozen load from the
// frozen set and takes the smallest fair share s over loaded links. Every
// unfrozen flow whose demand fits under s freezes at its demand; if none
// does, every unfrozen flow crossing a link whose share is s freezes at s.
// A flow that crosses no loaded link runs at its demand, or at the
// loopback rate when uncapped. It shares no state with the production
// allocators and allocates freely: it is O(rounds × Σ path).
func maxMinRates(paths [][]LinkID, capacity, demand []float64, loopback float64) []float64 {
	rates := make([]float64, len(paths))
	frozen := make([]bool, len(paths))
	resid := make([]float64, len(capacity))
	load := make([]int, len(capacity))
	shareOf := func(l LinkID) float64 { return math.Max(resid[l], 0) / float64(load[l]) }
	for left := len(paths); left > 0; {
		copy(resid, capacity)
		clear(load)
		for i, p := range paths {
			for _, l := range p {
				if frozen[i] {
					resid[l] -= rates[i]
				} else {
					load[l]++
				}
			}
		}
		share := math.Inf(1)
		for l, k := range load {
			if k > 0 {
				share = math.Min(share, shareOf(LinkID(l)))
			}
		}
		if math.IsInf(share, 1) {
			for i := range paths {
				if !frozen[i] {
					rates[i] = demand[i]
					if math.IsInf(rates[i], 1) {
						rates[i] = loopback
					}
					frozen[i] = true
				}
			}
			break
		}
		froze := false
		for i := range paths {
			if !frozen[i] && demand[i] <= share {
				rates[i], frozen[i] = demand[i], true
				left--
				froze = true
			}
		}
		if froze {
			continue
		}
		for i, p := range paths {
			if frozen[i] {
				continue
			}
			for _, l := range p {
				if load[l] > 0 && shareOf(l) == share {
					rates[i], frozen[i] = share, true
					left--
					break
				}
			}
		}
	}
	return rates
}
