package redist

import (
	"cmp"
	"fmt"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
)

// BuildPlanBatcher computes the same transfer plan as BuildPlan but with
// the paper's own machinery: the surplus and deficit prefix sums are
// merged with Batcher's bitonic merging network (O(α log p) latency,
// O(1) words per PE per stage) instead of an all-gather, and each PE
// derives its matched peers from its elements' positions in the merged
// order — "we match receiving slots and elements to be moved by merging
// the sequences d and s" (Section 9). Matched pairs then exchange their
// run boundaries point-to-point (one 2-word message per transfer pair) to
// fix the exact segment sizes.
//
// Plan-building cost: O(α log p) + O(matched pairs) messages, versus
// BuildPlan's O(βp) all-gather. The plans are identical. Collective.
func BuildPlanBatcher(pe *comm.PE, localCount int64) Plan {
	if localCount < 0 {
		panic("redist: negative local count")
	}
	p := pe.P()
	rank := pe.Rank()
	n := coll.SumAll(pe, localCount)
	nBar := (n + int64(p) - 1) / int64(p)
	plan := Plan{NBar: nBar}
	if n == 0 || p == 1 {
		return plan
	}

	surplus := max(localCount-nBar, 0)
	deficit := max(nBar-localCount, 0)
	sCur := coll.InScan(pe, []int64{surplus}, func(a, b int64) int64 { return a + b })[0]
	dRaw := coll.InScan(pe, []int64{deficit}, func(a, b int64) int64 { return a + b })[0]
	totalSurplus := coll.SumAll(pe, surplus)
	dCur := min(dRaw, totalSurplus) // only the first Σsurplus slots fill
	sPrev := sCur - surplus
	dPrev := max(dRaw-deficit, 0)
	if dPrev > totalSurplus {
		dPrev = totalSurplus
	}

	// Two merged orders with opposite tie-breaking give the ≤ and <
	// counts: composite keys val·2p + slot, where slot places one kind
	// before the other at equal values and keeps each sequence ascending.
	stride := uint64(2 * p)
	if uint64(n) > (^uint64(0)-stride)/stride {
		panic("redist: input too large for composite merge keys")
	}
	keyAs := uint64(sCur)*stride + uint64(p+rank) // A-order: d before s on ties
	keyAd := uint64(dCur)*stride + uint64(rank)
	keyBs := uint64(sCur)*stride + uint64(rank) // B-order: s before d on ties
	keyBd := uint64(dCur)*stride + uint64(p+rank)
	posAs, posAd := coll.BitonicMergePositions(pe, keyAs, keyAd)
	posBs, posBd := coll.BitonicMergePositions(pe, keyBs, keyBd)

	// Shift each PE's A-position of s and B-position of d to its right
	// neighbour (rank r needs the predecessor boundary's counts); rank 0
	// uses the zero-boundary counts computed by two cheap reductions.
	zeroD := coll.SumAll(pe, boolToI64(dCur == 0)) // #{d_r ≤ 0} (ties: d first)
	zeroS := coll.SumAll(pe, boolToI64(sCur == 0)) // #{s_j ≤ 0}
	tagShift := pe.NextCollTag()
	if rank+1 < p {
		pe.Send(rank+1, tagShift, [2]int64{int64(posAs), int64(posBd)}, 2)
	}
	cntDleSPrev := zeroD // for rank 0: s_{-1} = 0
	cntSleDPrev := zeroS
	if rank > 0 {
		rx, _ := pe.Recv(rank-1, tagShift)
		pair := rx.([2]int64)
		cntDleSPrev = pair[0] - int64(rank-1) // posA(s_{r-1}) − (r−1)
		cntSleDPrev = pair[1] - int64(rank-1) // posB(d_{r-1}) − (r−1)
	}
	cntDltSCur := int64(posBs) - int64(rank) // #{d < s_rank}
	cntSltDCur := int64(posAd) - int64(rank) // #{s < d_rank}

	// Matched ranges: receivers r ∈ [r0, rEnd) for my surplus run,
	// senders j ∈ [j0, jEnd) for my deficit run.
	r0 := clampI64(cntDleSPrev, 0, int64(p))
	rEnd := clampI64(cntDltSCur+1, 0, int64(p))
	j0 := clampI64(cntSleDPrev, 0, int64(p))
	jEnd := clampI64(cntSltDCur+1, 0, int64(p))
	if r0 > rEnd {
		rEnd = r0
	}
	if j0 > jEnd {
		jEnd = j0
	}

	// Exchange run boundaries across the matched ranges. The ranges are
	// supersets of the true (nonempty-overlap) pairings — empty runs can
	// produce vacuous inclusions with inconsistent membership on the two
	// sides — so the boundary info travels through the hypercube router,
	// which needs no agreement on per-peer message counts; vacuous pairs
	// simply contribute zero-overlap items that are dropped below.
	type bound struct {
		Dest   int32
		From   int32
		Lo, Hi int64
	}
	overlap := func(aLo, aHi, bLo, bHi int64) int64 {
		return min(aHi, bHi) - max(aLo, bLo)
	}
	boundDest := func(b bound) int { return int(b.Dest) }
	var outbound []bound
	for r := r0; r < rEnd; r++ { // my s-run boundaries → candidate receivers
		outbound = append(outbound, bound{Dest: int32(r), From: int32(rank), Lo: sPrev, Hi: sCur})
	}
	// The routed boundary batches are consumed in place via the stepper
	// form's borrowed view — each bound folds into the plan during the out
	// call, so the blocking router's caller-owned clone would be waste.
	comm.RunSteps(pe, coll.RouteCombineStep(pe, outbound, boundDest, nil, func(sIn []bound) {
		for _, b := range sIn { // receiver role: pair my d-run with received s-runs
			if c := overlap(b.Lo, b.Hi, dPrev, dCur); c > 0 {
				plan.Recvs = append(plan.Recvs, Transfer{Peer: int(b.From), Count: c})
			}
		}
	}))

	outbound = nil
	for j := j0; j < jEnd; j++ { // my d-run boundaries → candidate senders
		outbound = append(outbound, bound{Dest: int32(j), From: int32(rank), Lo: dPrev, Hi: dCur})
	}
	comm.RunSteps(pe, coll.RouteCombineStep(pe, outbound, boundDest, nil, func(dIn []bound) {
		for _, b := range dIn { // sender role: pair my s-run with received d-runs
			if c := overlap(sPrev, sCur, b.Lo, b.Hi); c > 0 {
				plan.Sends = append(plan.Sends, Transfer{Peer: int(b.From), Count: c})
			}
		}
	}))
	byPeer := func(a, b Transfer) int { return cmp.Compare(a.Peer, b.Peer) }
	slices.SortFunc(plan.Sends, byPeer)
	slices.SortFunc(plan.Recvs, byPeer)

	// A PE is a sender or a receiver, never both (surplus and deficit
	// cannot both be positive); zero-overlap pairings were dropped above.
	if len(plan.Sends) > 0 && len(plan.Recvs) > 0 {
		panic(fmt.Sprintf("redist: PE %d matched as both sender and receiver", rank))
	}
	return plan
}

func boolToI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func clampI64(x, lo, hi int64) int64 { return min(max(x, lo), hi) }
