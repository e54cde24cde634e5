package netsim

import "math"

// This file holds the flow core's bandwidth-sharing rate computations.
// Both write the per-flow rate vector into c.rates (indexed by
// active-list position), sized by reallocate before dispatch.
//
// maxMinFill is the one production progressive-filling routine, shared
// by the fluid transport (no demand caps) and TCP (each flow capped at
// its window demand). It is driven by maintained state rather than
// rescans: it walks only the loaded links (c.loaded — those some active
// flow crosses), freezes a bottleneck's flows straight off its per-link
// list (kept in active-list order, so no sort), and rescans the flow set
// for demand-limited flows only when one can actually freeze. Its cost is
// O(rounds × loaded links + Σ path) per reallocation. The independent
// from-scratch oracle it is checked against is maxMinRates
// (invariants.go).

// maxMinFill computes demand-capped max-min fair rates by progressive
// filling over the per-link flow index. demand is indexed by slot; nil
// means every flow is uncapped (fluid mode).
//
//  1. cnt[l] starts as the number of active flows crossing each loaded
//     link l (the maintained index length — no path scan), remCap[l] as
//     its capacity. Flows demanding nothing (a TCP flow stalled in RTO)
//     freeze at 0 up front and claim no capacity.
//  2. Each round picks the bottleneck: the minimum remCap/cnt over links
//     still carrying unfrozen flows, ties going to the lowest LinkID.
//     Links whose cnt reaches 0 drop out of the scan.
//  3. Every unfrozen flow whose demand is at most that fair share cannot
//     fill it anywhere: those freeze at their demand, in active-list
//     order, and the round restarts since shares moved. The scan runs
//     only when the smallest unfrozen demand seen by the previous scan
//     does not exceed the share — freezing only removes flows, so that
//     minimum stays a lower bound — and never in fluid mode.
//  4. Otherwise the bottleneck's unfrozen flows freeze at the fair share
//     in list order, returning their claim to the other links on their
//     paths.
//
// The per-link lists are kept in active-list order (ascending listIdx),
// so a bottleneck's flows freeze in activation order with no sort, and
// every captured byte stays a function of the seed alone. A flow left
// with no loaded link (only possible on infinite-capacity links) freezes
// at its demand, or at the loopback rate when uncapped.
func (c *soaCore) maxMinFill(demand []float64) {
	scan := append(c.loadScan[:0], c.loaded...)
	for _, l := range scan {
		c.remCap[l] = c.topo.links[l].CapacityBps
		c.cnt[l] = len(c.linkFlows[l])
	}
	remaining := len(c.active)
	minDemand := math.Inf(1)
	if demand != nil {
		for i, s := range c.active {
			d := demand[s]
			if d <= 0 {
				c.rates[i], c.frozen[i] = 0, true
				remaining--
				for _, lid := range c.path(s) {
					c.cnt[lid]--
				}
			} else if d < minDemand {
				minDemand = d
			}
		}
	}
	for remaining > 0 {
		best := LinkID(-1)
		bestShare := math.Inf(1)
		n := 0
		for _, l := range scan {
			cn := c.cnt[l]
			if cn == 0 {
				continue
			}
			scan[n] = l
			n++
			share := c.remCap[l] / float64(cn)
			if share < bestShare || share == bestShare && l < best {
				bestShare, best = share, l
			}
		}
		scan = scan[:n]
		if best < 0 {
			c.freezeStranded(demand)
			break
		}
		if minDemand <= bestShare {
			froze := false
			minDemand = math.Inf(1)
			for i, s := range c.active {
				if c.frozen[i] {
					continue
				}
				if d := demand[s]; d > bestShare {
					if d < minDemand {
						minDemand = d
					}
				} else {
					c.freezeAt(i, s, d)
					remaining--
					froze = true
				}
			}
			if froze {
				continue // shares moved; re-pick the bottleneck
			}
		}
		for _, s := range c.linkFlows[best] {
			if i := int(c.listIdx[s]); !c.frozen[i] {
				c.freezeAt(i, s, bestShare)
				remaining--
			}
		}
	}
	c.loadScan = scan[:0]
}

// freezeAt fixes the flow at active-list position i (slot s) at rate r
// and returns its claim to every link on its path.
func (c *soaCore) freezeAt(i int, s int32, r float64) {
	c.rates[i] = r
	c.frozen[i] = true
	for _, lid := range c.path(s) {
		c.remCap[lid] -= r
		if c.remCap[lid] < 0 {
			c.remCap[lid] = 0
		}
		c.cnt[lid]--
	}
}

// freezeStranded handles the should-not-happen case of unfrozen flows
// with no loaded links left: they freeze at their demand, or at the
// loopback rate when uncapped.
func (c *soaCore) freezeStranded(demand []float64) {
	for i, s := range c.active {
		if !c.frozen[i] {
			c.rates[i] = c.cfg.LoopbackBps
			if demand != nil {
				c.rates[i] = demand[s]
			}
			c.frozen[i] = true
		}
	}
}

// equalSplitRates is the ablation allocator: each flow gets min over its
// path of capacity/flow-count, with no redistribution of slack.
func (c *soaCore) equalSplitRates() {
	for _, l := range c.loaded {
		c.cnt[l] = len(c.linkFlows[l])
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
