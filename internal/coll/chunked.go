package coll

import (
	"commtopk/internal/comm"
)

// The streaming all-gather.
//
// The materializing forms (AllGatherv, AllGatherConcat, AllToAll) hand
// every PE all p blocks at once: per-PE result memory O(p·m̄), which at
// p = 16384 with even 4-word blocks is ~0.5 MB per PE — p² in aggregate,
// the reason the scaling suite's collective set was capped at the
// O(log p) operations. AllGatherChunked never materializes: the caller
// supplies a visit callback and the per-PE footprint stays
// O(m + chunk·m̄) — the local block plus a bounded window of in-flight
// blocks — at the price of a startup count that grows from O(log p)
// toward O(p/chunk). That trade is fundamental: every PE must still
// *see* p·m̄ words, it just no longer has to *hold* them.
//
// The protocol is a continuation stepper (async_route.go); the blocking
// form here drives it through comm.RunSteps.

// AllGatherChunked delivers every PE's block to every PE without
// materializing the gather: visit is called exactly once per rank — in
// an unspecified but deterministic order, own block included — with a
// view that is only valid during the call (the backing buffers are
// pooled and recycled). chunk bounds the window of blocks buffered and
// shipped together (clamped to [1, p]); per-PE memory is O(m + c·m̄)
// where c ≤ chunk, instead of the O(p·m̄) of AllGatherv.
//
// Structure: ranks are partitioned into ⌈p/c⌉ contiguous groups of c =
// the largest divisor of p not exceeding chunk. Each group first
// all-gathers internally (Bruck dissemination, ⌈log₂ c⌉ startups), then
// the group batches circulate around an inter-group ring (p/c − 1
// rounds, each forwarding the batch received in the previous round with
// ownership transfer). Volume per PE is ≤ total + p length words — the
// same class as the materializing Bruck all-gather — in
// ⌈log₂ c⌉ + p/c − 1 startups. For prime p the group size degenerates
// to 1 and the exchange is a pure ring (p − 1 startups).
func AllGatherChunked[T any](pe *comm.PE, data []T, chunk int, visit func(src int, block []T)) {
	comm.RunSteps(pe, AllGatherChunkedStep(pe, data, chunk, visit))
}

// visitBatch walks a canonical group batch: block j belongs to rank
// base+j.
func visitBatch[T any](base int, lens []int64, data []T, visit func(src int, block []T)) {
	var off int64
	for j, l := range lens {
		visit(base+j, data[off:off+l:off+l])
		off += l
	}
}

// groupSize returns the largest divisor of p not exceeding max(chunk, 1).
func groupSize(p, chunk int) int {
	c := max(min(chunk, p), 1)
	for ; c > 1; c-- {
		if p%c == 0 {
			return c
		}
	}
	return 1
}
