package netsim

import (
	"math"
	"slices"
)

// This file holds the flow core's fluid bandwidth-sharing rate
// computations. Both write the per-flow rate vector into c.rates (indexed
// by active-list position), sized by reallocate before dispatch.
//
// incrementalMaxMinRates is the production path: progressive filling
// driven by the per-link active-flow index, O(rounds × links) for
// bottleneck selection plus O(Σ path) for freezing — it never rescans
// the whole flow set per round. The independent from-scratch oracle it is
// checked against is maxMinRates (invariants.go).

// incrementalMaxMinRates computes max-min fair rates by progressive
// filling over the per-link flow index:
//
//  1. cnt[l] starts as the number of active flows crossing l (the
//     maintained index length — no path scan), remCap[l] as capacity.
//  2. Each round picks the bottleneck link (minimum remCap/cnt among
//     loaded links), then freezes exactly the unfrozen flows in
//     linkFlows[bottleneck] at that fair share, returning their
//     bandwidth claim to the other links on their paths.
//  3. Rounds repeat until every flow is frozen; a flow always keeps its
//     own links loaded until frozen, so progress is guaranteed.
//
// Candidates are processed in active-list order (ascending listIdx), so
// the floating-point arithmetic — and with it every captured byte — does
// not depend on the per-link lists' swap-remove order: they are sorted
// here — the sort is over one bottleneck's flows only, not the whole
// active set, and slices.SortFunc keeps it allocation-free.
func (c *soaCore) incrementalMaxMinRates() {
	for i, l := range c.topo.links {
		c.remCap[i] = l.CapacityBps
		c.cnt[i] = len(c.linkFlows[i])
	}
	remaining := len(c.active)
	for remaining > 0 {
		best := -1
		bestShare := math.Inf(1)
		for i, cn := range c.cnt {
			if cn == 0 {
				continue
			}
			share := c.remCap[i] / float64(cn)
			if share < bestShare {
				bestShare = share
				best = i
			}
		}
		if best < 0 {
			c.freezeStranded(&remaining)
			break
		}
		cand := c.freezeBuf[:0]
		for _, s := range c.linkFlows[best] {
			if !c.frozen[c.listIdx[s]] {
				cand = append(cand, s)
			}
		}
		// The per-link lists are usually already in activation order
		// (swap-remove only perturbs them on completions), so check
		// before paying for the sort.
		sorted := true
		for i := 1; i < len(cand); i++ {
			if c.listIdx[cand[i-1]] > c.listIdx[cand[i]] {
				sorted = false
				break
			}
		}
		if !sorted {
			slices.SortFunc(cand, func(a, b int32) int {
				return int(c.listIdx[a]) - int(c.listIdx[b])
			})
		}
		for _, s := range cand {
			li := c.listIdx[s]
			c.rates[li] = bestShare
			c.frozen[li] = true
			remaining--
			for _, lid := range c.path(s) {
				c.remCap[lid] -= bestShare
				if c.remCap[lid] < 0 {
					c.remCap[lid] = 0
				}
				c.cnt[lid]--
			}
		}
		c.freezeBuf = cand[:0]
	}
}

// freezeStranded handles the should-not-happen case of unfrozen flows
// with no loaded links left: they freeze at the loopback rate.
func (c *soaCore) freezeStranded(remaining *int) {
	for i := range c.frozen {
		if !c.frozen[i] {
			c.rates[i] = c.cfg.LoopbackBps
			c.frozen[i] = true
			*remaining -= 1
		}
	}
}

// equalSplitRates is the ablation allocator: each flow gets min over its
// path of capacity/flow-count, with no redistribution of slack.
func (c *soaCore) equalSplitRates() {
	for i := range c.topo.links {
		c.cnt[i] = len(c.linkFlows[i])
	}
	for i, s := range c.active {
		rate := math.Inf(1)
		for _, lid := range c.path(s) {
			share := c.topo.links[lid].CapacityBps / float64(c.cnt[lid])
			if share < rate {
				rate = share
			}
		}
		if math.IsInf(rate, 1) {
			rate = c.cfg.LoopbackBps
		}
		c.rates[i] = rate
	}
}
