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

// VerifyState checks the structural invariants of the transferring flow
// set: the active list and the per-link flow index agree with each other
// (each list in active-list order, the loaded-link list exact), the
// parked set holds only silent TCP flows — stalled in RTO wait, rate and
// demand zero, retransmission timer pending, no completion armed, in no
// link list — and shares no slot with the active list, no transferring
// flow crosses a downed link (SetLinkState reroutes or aborts victims
// synchronously, so this holds even while a reallocation is pending),
// every flow's residue is within [0, SizeBytes], and every pending
// completion sits at its flow's due time. When no reallocation is
// pending it additionally verifies the allocation itself via
// CheckInvariants (capacity and bottleneck conditions).
func (n *Network) VerifyState() error {
	for i, s := range n.active {
		if int(n.listIdx[s]) != i {
			return fmt.Errorf("netsim: flow %d listIdx %d but held at position %d", n.fid[s], n.listIdx[s], i)
		}
		if n.parkPos[s] != -1 {
			return fmt.Errorf("netsim: flow %d both active and parked (pos %d)", n.fid[s], n.parkPos[s])
		}
		if i > 0 && n.actSeq[n.active[i-1]] >= n.actSeq[s] {
			return fmt.Errorf("netsim: active list out of activation order at position %d", i)
		}
		if err := n.verifyTransferring(s); err != nil {
			return err
		}
		if err := n.verifyCompletion(s); err != nil {
			return err
		}
		for _, lid := range n.path(s) {
			if !slices.Contains(n.linkFlows[lid], s) {
				return fmt.Errorf("netsim: flow %d missing from link %d's index", n.fid[s], lid)
			}
		}
	}
	if len(n.parked) > 0 && n.tcp == nil {
		return fmt.Errorf("netsim: %d flows parked under the fluid transport", len(n.parked))
	}
	for i, s := range n.parked {
		if int(n.parkPos[s]) != i {
			return fmt.Errorf("netsim: flow %d parkPos %d but parked at position %d", n.fid[s], n.parkPos[s], i)
		}
		if n.listIdx[s] != -1 {
			return fmt.Errorf("netsim: parked flow %d keeps active-list index %d", n.fid[s], n.listIdx[s])
		}
		if err := n.verifyTransferring(s); err != nil {
			return err
		}
		if n.rate[s] != 0 || n.tcp.demand[s] != 0 {
			return fmt.Errorf("netsim: parked flow %d has rate %.3g and demand %.3g bps, want 0", n.fid[s], n.rate[s], n.tcp.demand[s])
		}
		if n.due[s] != noDue || n.completeEv[s].Pending() {
			return fmt.Errorf("netsim: parked flow %d is due at %v (completion pending %v)", n.fid[s], n.due[s], n.completeEv[s].Pending())
		}
		if !n.tcp.rtoEv[s].Pending() {
			return fmt.Errorf("netsim: parked flow %d has no retransmission timer pending", n.fid[s])
		}
		for _, lid := range n.path(s) {
			if slices.Contains(n.linkFlows[lid], s) {
				return fmt.Errorf("netsim: parked flow %d still in link %d's index", n.fid[s], lid)
			}
		}
	}
	// Every per-link list holds active slots in strictly ascending listIdx
	// (the allocator's freeze order), and loaded names exactly the links
	// whose list is non-empty.
	indexed, nLoaded := 0, 0
	for l, lst := range n.linkFlows {
		for j, s := range lst {
			if n.state[s] != slotActive || n.listIdx[s] < 0 {
				return fmt.Errorf("netsim: link %d index holds slot %d in state %d, list index %d", l, s, n.state[s], n.listIdx[s])
			}
			if j > 0 && n.listIdx[lst[j-1]] >= n.listIdx[s] {
				return fmt.Errorf("netsim: link %d index out of active-list order at entry %d", l, j)
			}
		}
		indexed += len(lst)
		p := n.loadedPos[l]
		switch {
		case len(lst) == 0 && p != -1:
			return fmt.Errorf("netsim: empty link %d marked loaded at %d", l, p)
		case len(lst) > 0 && (p < 0 || int(p) >= len(n.loaded) || n.loaded[p] != LinkID(l)):
			return fmt.Errorf("netsim: loaded link %d missing from the loaded list (pos %d)", l, p)
		}
		if len(lst) > 0 {
			nLoaded++
		}
	}
	if nLoaded != len(n.loaded) {
		return fmt.Errorf("netsim: loaded list holds %d links, %d carry flows", len(n.loaded), nLoaded)
	}
	pathSum := 0
	for _, s := range n.active {
		pathSum += int(n.pathLen[s])
	}
	if indexed != pathSum {
		return fmt.Errorf("netsim: per-link index holds %d entries, active paths cover %d", indexed, pathSum)
	}
	// Slot accounting: every slot is exactly one of free-listed, in the
	// active list, parked, or mid-lifecycle (propagating/loopback).
	inFree := 0
	for _, s := range n.freeSlots {
		if n.state[s] != slotFree {
			return fmt.Errorf("netsim: slot %d on the free list but in state %d", s, n.state[s])
		}
		inFree++
	}
	nFree, nActive := 0, 0
	for s, st := range n.state {
		switch st {
		case slotFree:
			nFree++
		case slotActive:
			nActive++
		}
		if p := n.parkPos[s]; p >= 0 && (int(p) >= len(n.parked) || n.parked[p] != int32(s)) {
			return fmt.Errorf("netsim: slot %d parkPos %d but not parked there", s, p)
		}
	}
	if inFree != nFree {
		return fmt.Errorf("netsim: %d slots marked free but %d on the free list", nFree, inFree)
	}
	if held := len(n.active) + len(n.parked); held != nActive {
		return fmt.Errorf("netsim: %d slots transferring but %d active or parked", nActive, held)
	}
	if n.tcp != nil {
		if err := n.tcp.verify(); err != nil {
			return err
		}
	}
	if n.reallocPending {
		// Rates are stale until the coalesced dirty event fires at this
		// same timestamp; the allocation conditions are not meaningful yet.
		return nil
	}
	return n.CheckInvariants()
}

// verifyTransferring checks what holds for every transferring slot s,
// active or parked: its state, its residue, and a path clear of downed
// links.
func (n *Network) verifyTransferring(s int32) error {
	if n.state[s] != slotActive {
		return fmt.Errorf("netsim: flow %d held as transferring but state %d (done, free or not yet active)", n.fid[s], n.state[s])
	}
	if n.remaining[s] < 0 || n.remaining[s] > float64(n.spec[s].SizeBytes) {
		return fmt.Errorf("netsim: flow %d remaining %.3g outside [0, %d]", n.fid[s], n.remaining[s], n.spec[s].SizeBytes)
	}
	for _, lid := range n.path(s) {
		if n.topo.linkDown[lid] {
			return fmt.Errorf("netsim: flow %d active on downed link %d", n.fid[s], lid)
		}
	}
	return nil
}

// verifyCompletion checks active slot s's lazily armed completion. A
// flow with no rate has no due time and no pending completion. A pending
// completion is always at the flow's due time. When no reallocation is
// pending, a flow with a rate has its completion pending exactly when its
// due time is at or before the horizon — the next ack-clock tick under
// TCP, always in fluid mode. (A pending reallocation may be the one that
// arms completions the last tick moved inside the horizon.)
func (n *Network) verifyCompletion(s int32) error {
	ev := n.completeEv[s]
	pending := ev.Pending()
	if n.rate[s] == 0 {
		if n.due[s] != noDue || pending {
			return fmt.Errorf("netsim: flow %d has no rate but is due at %v (pending %v)", n.fid[s], n.due[s], pending)
		}
		return nil
	}
	if pending && ev.At() != n.due[s] {
		return fmt.Errorf("netsim: flow %d completion pending at %v, due at %v", n.fid[s], ev.At(), n.due[s])
	}
	if n.reallocPending {
		return nil
	}
	if want := n.due[s] != noDue && n.due[s] <= n.horizon; pending != want {
		return fmt.Errorf("netsim: flow %d due at %v, horizon %v, completion pending %v", n.fid[s], n.due[s], n.horizon, pending)
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
	if n.reallocPending || len(n.active) == 0 || n.equalSplit {
		return nil
	}
	paths := make([][]LinkID, len(n.active))
	demand := make([]float64, len(n.active))
	for i, s := range n.active {
		paths[i] = n.path(s)
		demand[i] = n.demandOf(s)
	}
	capacity := make([]float64, len(n.topo.links))
	for i, l := range n.topo.links {
		capacity[i] = l.CapacityBps
	}
	want := maxMinRates(paths, capacity, demand, loopbackBps)
	for i, s := range n.active {
		if !rateEqual(n.rate[s], want[i]) {
			return fmt.Errorf("netsim: flow %d rate %.6g bps diverges from max-min oracle %.6g bps", n.fid[s], n.rate[s], want[i])
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
