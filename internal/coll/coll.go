// Package coll implements the collective communication operations of
// Section 2 of the paper on top of the point-to-point primitives of
// internal/comm: broadcast, (all-)reduction, prefix sums, gather, scatter,
// all-gather, all-to-all, and the hypercube all-to-all with per-step
// combining used for distributed hash table insertion.
//
// All collectives are implemented with binomial trees, recursive doubling
// or hypercube exchanges, so their measured startup counts are O(log p)
// and their measured volumes match the O(βm + α log p) bounds the paper
// assumes. Every collective must be entered by all PEs (SPMD discipline);
// tags are drawn from the synchronized per-PE sequence.
//
// # Buffer ownership and allocation discipline
//
// The reduction-shaped collectives move all intermediate message buffers
// through the typed pools in internal/commbuf, travelling as *[]T (a
// pointer in an interface does not allocate, unlike a slice header).
// Ownership of a buffer transfers with the message — the sender never
// touches it again, and the receiver recycles it after combining — so
// recycling is race-free without any extra synchronization. Results never
// alias caller inputs, and caller inputs are never sent by reference, so
// callers may reuse their input slices immediately.
//
// Fully allocation-free in steady state are the variants that do not hand
// a fresh result slice to the caller: the scalar collectives
// (AllReduceScalar, SumAll, BroadcastScalar, ExScanSum), Barrier, and
// AllReduceIntoStep with a reused dst. The slice-returning
// conveniences (AllReduce, InScan, AllGatherConcat) still allocate their
// result — one slice per call, with all internal traffic pooled.
//
// The data-movement collectives Broadcast, Gatherv and AllGatherv keep
// by-reference semantics for the payload: see each function's aliasing
// notes. AllToAll hands back caller-owned copies of what it receives and
// aliases only the PE's own part.
//
// Every collective has one protocol engine, a stepper (the async*.go
// files): the blocking form drives it with comm.RunSteps, and the scalar
// all-reduce and exclusive scan run the vector engines on one element.
package coll

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// WordsOf returns the size of T in 64-bit machine words (rounded up),
// used to meter messages in the paper's unit of account.
func WordsOf[T any]() int64 {
	var zero T
	sz := int64(unsafe.Sizeof(zero))
	if sz == 0 {
		return 0
	}
	return (sz + 7) / 8
}

func sliceWords[T any](s []T) int64 { return int64(len(s)) * WordsOf[T]() }

// sendCopy copies s into a pooled buffer and sends it to dst. Ownership of
// the buffer passes to the receiver (which recycles it with Put when done
// reading), so s itself never enters a channel and the caller may mutate
// it as soon as sendCopy returns.
func sendCopy[T any](pe *comm.PE, pool *commbuf.Pool[T], dst int, tag comm.Tag, s []T) {
	b := pool.Get(len(s))
	copy(*b, s)
	pe.Send(dst, tag, b, sliceWords(s))
}

// combine folds rx into acc elementwise, in place.
func combine[T any](op func(a, b T) T, acc, rx []T) {
	if len(acc) != len(rx) {
		panic(fmt.Sprintf("coll: reduction vector length mismatch: %d vs %d", len(acc), len(rx)))
	}
	for i, v := range rx {
		acc[i] = op(acc[i], v)
	}
}

// Barrier synchronizes all PEs (a zero-word all-reduce).
func Barrier(pe *comm.PE) {
	AllReduceScalar(pe, int64(0), func(a, b int64) int64 { return a + b })
}

// Broadcast distributes root's data to all PEs along a binomial tree and
// returns it everywhere. Non-root inputs are ignored. The returned slice
// is shared between PEs in-process and must be treated as read-only; use
// slices.Clone if mutation is needed. The schedule is broadcastStep
// driven to completion with blocking waits.
func Broadcast[T any](pe *comm.PE, root int, data []T) []T {
	s := comm.GetPooled[broadcastStep[T]](pe)
	*s = broadcastStep[T]{root: root, data: data, held: true}
	comm.RunSteps(pe, s)
	data = s.data
	*s = broadcastStep[T]{}
	comm.PutPooled(pe, s)
	return data
}

// BroadcastScalar broadcasts a single value from root. Allocation-free
// in steady state (broadcastScalarStep driven with blocking waits).
func BroadcastScalar[T any](pe *comm.PE, root int, v T) T {
	s := comm.GetPooled[broadcastScalarStep[T]](pe)
	*s = broadcastScalarStep[T]{root: root, v: v, held: true}
	comm.RunSteps(pe, s)
	v = s.v
	*s = broadcastScalarStep[T]{}
	comm.PutPooled(pe, s)
	return v
}

// AllReduce combines x elementwise with op and returns the result on all
// PEs. Short vectors use recursive doubling (volume m·log p, minimal
// latency); long vectors switch to reduce-scatter + all-gather
// (Rabenseifner), whose volume is O(m) independent of p — the
// full-bandwidth regime of the collectives the paper cites [33]. Both
// paths fold non-power-of-two stragglers onto partners first. The result
// never aliases x and is owned by the caller. The schedule is the
// all-reduce engine of async_vec.go driven with blocking waits.
func AllReduce[T any](pe *comm.PE, x []T, op func(a, b T) T) []T {
	dst := commbuf.Resize[T](nil, len(x))
	copy(dst, x)
	comm.RunSteps(pe, newAllReduceAccStep(pe, dst, op, nil))
	return dst
}

// AllReduceScalar is AllReduce for a single value: the all-reduce engine
// on a one-element accumulator. Allocation-free in steady state.
func AllReduceScalar[T any](pe *comm.PE, v T, op func(a, b T) T) T {
	return runScalar(pe, newAllReduceScalar(pe, v, op, nil))
}

// addOf is the sum operator as a package-level generic function.
// Evaluating it inside a generic function still builds a
// dictionary-carrying func value that heap-allocates when it escapes into
// the pooled stepper state, so the zero-alloc wrappers below cache the
// built value in a per-PE singleton (comm.GetSingleton) — one allocation
// per PE and element type, ever.
func addOf[T cmp.Ordered](a, b T) T { return a + b }

type scalarOps[T cmp.Ordered] struct {
	add func(a, b T) T
}

func opsOf[T cmp.Ordered](pe *comm.PE) *scalarOps[T] {
	o := comm.GetSingleton[scalarOps[T]](pe)
	if o.add == nil {
		o.add = addOf[T]
	}
	return o
}

// SumAll returns the global sum of v across PEs on all PEs.
func SumAll[T int | int64 | float64 | uint64](pe *comm.PE, v T) T {
	return AllReduceScalar(pe, v, opsOf[T](pe).add)
}

// InScan returns the inclusive prefix combination of x: PE j receives
// op(x@0, ..., x@j) elementwise (Hillis–Steele dissemination, O(log p)
// rounds). The result never aliases x. The schedule is the scan engine
// of async_scan.go driven with blocking waits.
func InScan[T any](pe *comm.PE, x []T, op func(a, b T) T) []T {
	acc := commbuf.Resize[T](nil, len(x))
	copy(acc, x)
	comm.RunSteps(pe, newInScanStep(pe, acc, op, nil, false, nil))
	return acc
}

// ExScanSum returns the exclusive prefix sum of a scalar: the exclusive
// scan engine on a one-element accumulator with identity 0.
// Allocation-free in steady state.
func ExScanSum[T int | int64 | float64 | uint64](pe *comm.PE, v T) T {
	return runScalar(pe, newExScanSum(pe, v, nil))
}

// rankedBlock carries a PE's contribution through a gather tree.
type rankedBlock[T any] struct {
	rank int
	data []T
}

// Gatherv collects every PE's slice on root: the returned slice of slices
// is indexed by rank on root, nil elsewhere. Contributions may have
// different lengths. Uses a binomial tree (O(α log p) startups; each tree
// edge carries its whole subtree, so volume is O(β·total) at the root's
// incoming edges, matching the model). The root's result aliases the
// contributing PEs' data slices (not copies); treat it as read-only.
func Gatherv[T any](pe *comm.PE, root int, data []T) [][]T {
	p := pe.P()
	if p == 1 {
		return [][]T{data}
	}
	st := newGathervStep(pe, root, data)
	comm.RunSteps(pe, st)
	var out [][]T
	if pe.Rank() == root {
		out = make([][]T, p)
		for _, b := range st.hold {
			out[b.rank] = b.data
		}
	}
	st.release(pe)
	return out
}

// Scatterv distributes parts[i] from root to PE i along a binomial tree and
// returns the local part on every PE. parts is only read on root. The
// returned slice aliases the root's parts[i] (not a copy). The schedule
// is the binomial-tree engine of async_reduce.go driven to completion
// with blocking waits.
func Scatterv[T any](pe *comm.PE, root int, parts [][]T) []T {
	var mine []T
	comm.RunSteps(pe, newScattervStep(pe, root, parts, func(r []T) { mine = r }))
	return mine
}

// bruckMsg is one dissemination round's payload: the concatenated data of
// a contiguous run of blocks plus their individual lengths. The slices
// are pooled buffers whose ownership travels with the message (pointers,
// so the receiver can recycle them). ReduceConcatStep's tree edges carry
// the same shape — lens is then the summed header, data the subtree's
// concatenation — so the two share this carrier and its wire codec.
type bruckMsg[T any] struct {
	lens *[]int64
	data *[]T
}

// bruckView is a dissemination round's payload in the hybrid scheme:
// read-only views straight into the sender's held run, no staging copy.
// Each hop still lands one physical copy in the receiver (the arena
// append — what a real transfer's write side costs), but the sender no
// longer stages the run into a pooled buffer first; dropping that second
// copy plus the per-round pool traffic recovers most of the host-side
// cost the all-copying rewrite added, without touching the meter (the
// same words are charged). Safe because the sender only ever appends
// *beyond* the sent prefix afterwards (in-place appends write disjoint
// indices; reallocating appends leave the shared backing untouched), the
// receiver only reads, and every downstream consumer of the gathered
// result either copies it out (AllGatherConcat) or exposes it read-only
// (AllGatherv).
type bruckView[T any] struct {
	lens []int64
	data []T
}

// allGatherBruck is the dissemination (Bruck-style gossiping) all-gather
// engine: starting from its own block, every PE doubles its held run of
// blocks per round by exchanging with partners at distance 2^i, so after
// ⌈log₂ p⌉ rounds it holds all p blocks. Compared to the previous
// gather+broadcast realization the bottleneck volume drops from the
// root's Θ(total·log p) (the binomial broadcast resends the full
// assembly to every child) to ≤ total + p length words per PE — the
// paper's O(β·total + α log p) with the gossiping constant — and the
// startup count is a uniform ⌈log₂ p⌉ per PE.
//
// Returns the receiver-local arena holding the blocks in shifted order
// (rank, rank+1, …, rank+p−1 mod p) and the per-block lengths in that
// order. Both are freshly allocated and caller-owned; nothing aliases
// another PE's memory. Every round ships in-process read-only views of
// the sender's held run (see bruckView) and the receiver appends them
// into its own arena — one physical copy per hop instead of a staging
// copy plus an append, while the meter still charges the full transfer.
func allGatherBruck[T any](pe *comm.PE, data []T) (arena []T, lens []int64) {
	st := newAGBruckStep(pe, data, true)
	comm.RunSteps(pe, st)
	arena, lens = st.arena, st.lens
	st.put(pe)
	return arena, lens
}

// AllGatherv collects every PE's slice on all PEs (indexed by rank), via
// the dissemination all-gather (see allGatherBruck): volume ≤ total + p
// length words per PE in ⌈log₂ p⌉ startups — the paper's gossiping bound,
// half (or better) of the previous gather+broadcast realization. The
// returned subslices view one receiver-local buffer; as before, treat
// them as read-only (for p = 1 the result aliases data).
func AllGatherv[T any](pe *comm.PE, data []T) [][]T {
	p := pe.P()
	if p == 1 {
		return [][]T{data}
	}
	arena, lens := allGatherBruck(pe, data)
	out := make([][]T, p)
	var off int64
	for i := 0; i < p; i++ {
		r := (pe.Rank() + i) % p
		out[r] = arena[off : off+lens[i]]
		off += lens[i]
	}
	return out
}

// AllGatherConcat collects every PE's slice concatenated in rank order.
// The result is owned by the caller (each PE gets its own copy).
func AllGatherConcat[T any](pe *comm.PE, data []T) []T {
	p := pe.P()
	if p == 1 {
		return slices.Clone(data)
	}
	arena, lens := allGatherBruck(pe, data)
	// The arena starts at this PE's own block; rotate into rank order.
	// Block of rank 0 sits at held index i0 = p − rank (mod p).
	i0 := (p - pe.Rank()) % p
	var off0 int64
	for _, l := range lens[:i0] {
		off0 += l
	}
	out := make([]T, len(arena))
	n := copy(out, arena[off0:])
	copy(out[n:], arena[:off0])
	return out
}

// AllToAll delivers parts[i] from every PE to PE i; the result is indexed
// by source rank. Direct point-to-point delivery: p-1 startups per PE,
// pairwise-staggered to avoid hot spots (allToAllStep driven with
// blocking waits). The self-part out[rank] aliases parts[rank] (no copy —
// pinned by tests); every received part is a caller-owned copy, and
// parts may be reused as soon as AllToAll returns.
func AllToAll[T any](pe *comm.PE, parts [][]T) [][]T {
	out := make([][]T, pe.P())
	rank := pe.Rank()
	comm.RunSteps(pe, AllToAllStep(pe, parts, func(src int, part []T) {
		if src != rank {
			part = slices.Clone(part)
		}
		out[src] = part
	}))
	return out
}
