// Package sel implements the paper's selection algorithms (Section 4 and
// Appendix A):
//
//   - Kth / SmallestK: communication-efficient selection from unsorted
//     input (Algorithm 1, Theorem 1) — distributed Floyd–Rivest with
//     Bernoulli pivot sampling that does not require randomly distributed
//     data, one tree round trip per recursion level. KthSortedStep is
//     the same algorithm for a resident, locally sorted shard that is
//     queried many times: no copy, no scan, binary searches for the
//     partition counts (async.go).
//   - MSSelect: exact multisequence selection from locally sorted input:
//     Algorithm 1's sorted form on the first min(k, len) elements of each
//     sequence (Appendix A), one size all-reduce plus one tree round trip
//     per level, O(α log kp) expected (msasync.go).
//   - AMSSelect: approximate multisequence selection with flexible output
//     size k ∈ [k̲, k̄] (Algorithm 2, Theorem 3), O(log k̄ + α log p)
//     expected.
//   - AMSSelectBatched: the d-concurrent-trials refinement (Theorem 4).
//
// All functions are SPMD collectives: every PE must call them with its
// local share of the data. Keys must have a unique total order for the
// exact algorithms (tie-break by composing position into the key, as the
// paper's (v, x) trick does); SmallestK additionally handles duplicates
// directly by splitting ties with a prefix sum.
package sel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// tagged carries an optional value through min/max reductions (the
// sentinel for "this PE has no candidate").
type tagged[K any] struct {
	Has bool
	Val K
}

func minTagged[K cmp.Ordered](a, b tagged[K]) tagged[K] {
	if !a.Has {
		return b
	}
	if !b.Has {
		return a
	}
	if b.Val < a.Val {
		return b
	}
	return a
}

// ---------------------------------------------------------------------------
// Unsorted selection (Algorithm 1)
// ---------------------------------------------------------------------------

// Kth returns the element of global rank k (1-based) among the union of
// all PEs' local slices, on every PE. The local slices are not modified.
// rng must be a per-PE stream (independent across PEs). Panics if k is out
// of range — a programming error surfaced through Machine.Run.
//
// Local work is allocation-free in steady state and copies nothing up
// front: level 0 samples local itself, and each later level splits its
// window with one branch-free pass that counts the elements below the
// band and writes the band, in local's order, into a buffer of the pooled
// selection state (qsel.SplitBand) — one buffer of len(local), never a
// second.
//
// Kth is the state machine of async.go (KthStep) driven to completion
// with blocking waits — one implementation for both execution modes.
// After one size all-reduce, a recursion level is one up-sweep and one
// down-sweep of a binomial tree, 2(p−1) messages: the band counts and a
// Bernoulli sample of the band the recursion expects to keep go up
// together, and the root's verdict — the counts, the next Floyd–Rivest
// pivots (sample ranks k|S|/n ± Δ, Δ = m^(1/2+δ), δ = 1/10) and the next
// sampling rate, 5 words — comes down. The rationale lives with the
// state machine there.
func Kth[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG) K {
	st := newKthStep(pe, local, k, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}

func clamp(x, lo, hi int64) int64 { return min(max(x, lo), hi) }

// SmallestK returns this PE's share of the k globally smallest elements
// (exactly k in total across PEs, duplicates split by a prefix sum over
// ranks). The order of the returned slice is unspecified.
func SmallestK[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG) []K {
	n := coll.SumAll(pe, int64(len(local)))
	if k < 0 || k > n {
		panic(fmt.Sprintf("sel: k %d out of range 0..%d", k, n))
	}
	if k == 0 {
		return nil
	}
	if k == n {
		return slices.Clone(local)
	}
	st := newKthNStep(pe, local, n, k, rng, nil, false)
	comm.RunSteps(pe, st)
	v := st.res
	// Every element below v is taken; v's tie group fills the remaining
	// k − globLo places, lower ranks first. The selection's narrowing
	// history gives the local rank split without a pass over local.
	below, equal := st.localRank()
	st.release(pe)
	globLo := coll.SumAll(pe, int64(below))
	take := int(clamp(k-globLo-coll.ExScanSum(pe, int64(equal)), 0, int64(equal)))
	out := make([]K, below+take)
	// The output pass has no data-dependent branch: every element is
	// stored at out[j], and j moves past the ones below v and the first
	// take of v's tie group (seen counts the group so far). Once the ties
	// are taken, the second loop compares with v once per element; it
	// stops when out is full, so no store overruns it.
	i, j := 0, 0
	for seen := 0; seen < take; i++ {
		e := local[i]
		out[j] = e
		lt, eq := 0, 0
		if e < v {
			lt = 1
		}
		if e == v {
			eq = 1
		}
		seen += eq
		j += lt | eq
	}
	for ; j < len(out); i++ {
		e := local[i]
		out[j] = e
		lt := 0
		if e < v {
			lt = 1
		}
		j += lt
	}
	return out
}

// KthRandomized is the pre-paper baseline ([31], Table 1 "old"): it first
// redistributes all elements to random PEs (the assumption the old
// analysis needs) and then selects. The redistribution costs Θ(n/p) words
// per PE — exactly the overhead Theorem 1 removes; Table 1 benches
// measure the difference.
//
// The redistribution groups elements by destination with a counting sort
// into one flat send buffer instead of p growing append slices, so the
// host-side cost is O(n/p) time and O(1) allocations per call. The old
// per-element append behavior inflated the baseline's wall-clock constant
// and flattered the new algorithm's measured win — the communication
// metrics were always honest.
func KthRandomized[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG) K {
	p := pe.P()
	if p == 1 {
		return Kth(pe, local, k, rng)
	}
	dests := make([]int32, len(local))
	counts := make([]int32, p)
	for i := range local {
		d := rng.Intn(p)
		dests[i] = int32(d)
		counts[d]++
	}
	// offs[d] is the write cursor for destination d in the flat buffer.
	offs := make([]int32, p)
	var off int32
	for d, c := range counts {
		offs[d] = off
		off += c
	}
	flat := make([]K, len(local))
	parts := make([][]K, p)
	off = 0
	for d, c := range counts {
		parts[d] = flat[off : off+c]
		off += c
	}
	for i, e := range local {
		d := dests[i]
		flat[offs[d]] = e
		offs[d]++
	}
	recv := coll.AllToAll(pe, parts)
	var total int
	for _, part := range recv {
		total += len(part)
	}
	shuffled := make([]K, 0, total)
	for _, part := range recv {
		shuffled = append(shuffled, part...)
	}
	return Kth(pe, shuffled, k, rng)
}

// ---------------------------------------------------------------------------
// Sorted sequences: the Seq abstraction
// ---------------------------------------------------------------------------

// Seq is a locally sorted sequence accessed by rank and by key — the
// interface both sorted slices and the bulk priority queue's search trees
// implement, so the multisequence selection algorithms below run on
// either representation (Section 5: "the only difference is that instead
// of sorted arrays, we are now working on search trees").
type Seq[K cmp.Ordered] interface {
	// Len returns the number of elements.
	Len() int
	// At returns the i-th smallest element, 0-based; i must be in range.
	At(i int) K
	// CountLess returns the number of elements with key < v.
	CountLess(v K) int
	// CountLE returns the number of elements with key ≤ v.
	CountLE(v K) int
}

// SliceSeq adapts an ascending-sorted slice to Seq.
type SliceSeq[K cmp.Ordered] []K

// Len implements Seq.
func (s SliceSeq[K]) Len() int { return len(s) }

// At implements Seq.
func (s SliceSeq[K]) At(i int) K { return s[i] }

// CountLess implements Seq.
func (s SliceSeq[K]) CountLess(v K) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= v })
}

// CountLE implements Seq.
func (s SliceSeq[K]) CountLE(v K) int {
	return sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// ---------------------------------------------------------------------------
// Exact multisequence selection (Appendix A + Algorithm 1)
// ---------------------------------------------------------------------------

// MSSelect returns the element of global rank k (1-based) from locally
// sorted sequences, together with the number of local elements ≤ that
// element (this PE's share of the selected prefix). Keys must be globally
// unique. shared must be a cross-PE synchronized stream: construct it with
// the same seed on every PE and use it only inside lockstep collectives.
//
// MSSelect consumes exactly one draw of shared, which seeds the per-PE
// sampling stream of the selection.
//
// The answer lies in the first min(k, len) elements of every sequence
// (Appendix A); MSSelect selects it from those prefixes with the sorted
// form of Algorithm 1 (KthSortedStep's state machine): one size
// all-reduce, then one binomial-tree up- and down-sweep per level —
// p·⌈log₂ p⌉ + 2(p−1)·levels messages. That is Theorem 1's latency on
// n ≤ kp elements, O(α log kp) expected, where Theorem 16's random-pivot
// loop costs O(α log² kp) in four collectives per iteration. Local work
// is O(log min(k, len)) per level plus the CountLE of the answer, and
// O(min(k, len)) once to copy the prefix of a Seq that is not a SliceSeq.
//
// MSSelect is the state machine of msasync.go (msSelectStep) driven to
// completion with blocking waits; AMSSelect's exact fallback runs the
// same machine.
func MSSelect[K cmp.Ordered](pe *comm.PE, s Seq[K], k int64, shared *xrand.RNG) (K, int) {
	st := newMSSelectStep(pe, s, k, shared)
	comm.RunSteps(pe, st)
	v, n := st.resV, st.resN
	st.release(pe)
	return v, n
}

func clampInt(x, lo, hi int) int { return min(max(x, lo), hi) }

// ---------------------------------------------------------------------------
// Approximate multisequence selection, flexible k (Algorithm 2)
// ---------------------------------------------------------------------------

// AMSResult is the outcome of approximate multisequence selection.
type AMSResult[K cmp.Ordered] struct {
	// Threshold is the selection threshold v: the selected set is exactly
	// the elements ≤ v.
	Threshold K
	// Count is the global number of selected elements, in [kmin, kmax].
	Count int64
	// LocalLen is this PE's number of selected elements (its prefix length).
	LocalLen int
	// Rounds is the number of estimation rounds used (1 expected).
	Rounds int
}

// amsRho returns the min-based sampling probability that maximizes
// P[rank of min sample ∈ [kmin, kmax]]: the maximizer of
// q^(kmin-1) − q^kmax over q = 1−ρ is q* = ((kmin−1)/kmax)^(1/(kmax−kmin+1)).
func amsRho(kmin, kmax int64) float64 {
	if kmin <= 1 {
		return 1 // the global minimum always has rank 1 ∈ [kmin, kmax]
	}
	q := math.Pow(float64(kmin-1)/float64(kmax), 1/float64(kmax-kmin+1))
	rho := 1 - q
	return clampFloat(rho, 1e-12, 1)
}

func clampFloat(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }

// AMSSelect selects the k̲ ≤ k ≤ k̄ globally smallest elements from locally
// sorted sequences (Algorithm 2). Keys must be globally unique. rng is the
// per-PE stream (geometric deviates are drawn locally and independently).
// Expected time O(log k̄ + α log p) when k̄ − k̲ = Ω(k̄) — Theorem 3.
//
// If the flexible search does not land in [k̲, k̄] within amsMaxRounds
// (rank counts that jump over the interval: ties across PEs), it falls
// back to exact MSSelect at rank k̲ on the remaining window, seeded from
// quantities every PE agrees on; the fallback preserves correctness at
// the cost of the rounds spent.
func AMSSelect[K cmp.Ordered](pe *comm.PE, s Seq[K], kmin, kmax int64, rng *xrand.RNG) AMSResult[K] {
	return amsSelect(pe, s, kmin, kmax, rng, 1)
}

// AMSSelectBatched is AMSSelect with d concurrent Bernoulli trials per
// round (Theorem 4): the d candidate pivots share one vector-valued
// reduction, trading O(βd) volume for a constant expected round count
// already when k̄ − k̲ = Ω(k̄/d).
func AMSSelectBatched[K cmp.Ordered](pe *comm.PE, s Seq[K], kmin, kmax int64, d int, rng *xrand.RNG) AMSResult[K] {
	if d < 1 {
		panic("sel: AMSSelectBatched needs d >= 1")
	}
	return amsSelect(pe, s, kmin, kmax, rng, d)
}

// amsSelect is the one-lane state machine of msasync.go (newAMSOneLane)
// driven to completion with blocking waits — the engine AMSSelectNStep
// hands to a caller's stepper. The estimator rationale (dual min/max geometric
// sampling, d-wide candidate reductions, narrowing to the tightest
// under/over bracket, exact fallback) lives with the state machine there.
func amsSelect[K cmp.Ordered](pe *comm.PE, s Seq[K], kmin, kmax int64, rng *xrand.RNG, d int) AMSResult[K] {
	st := newAMSOneLane(pe, s, -1, kmin, kmax, rng, d, nil, false)
	comm.RunSteps(pe, st)
	res := st.lanes[0].Res
	st.release(pe)
	return res
}

// subSeq restricts a Seq to the window [lo, hi) — the paper's cursor
// representation of a subsequence ("represent a subsequence of s by s
// itself plus cursor information").
type subSeq[K cmp.Ordered] struct {
	s      Seq[K]
	lo, hi int
}

func (w subSeq[K]) Len() int   { return w.hi - w.lo }
func (w subSeq[K]) At(i int) K { return w.s.At(w.lo + i) }
func (w subSeq[K]) CountLess(v K) int {
	return clampInt(w.s.CountLess(v), w.lo, w.hi) - w.lo
}
func (w subSeq[K]) CountLE(v K) int {
	return clampInt(w.s.CountLE(v), w.lo, w.hi) - w.lo
}
