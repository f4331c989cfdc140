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
//     per level, O(α log kp) expected.
//   - AMSSelect: approximate multisequence selection with flexible output
//     size k ∈ [k̲, k̄] (Algorithm 2, Theorem 3), O(log k̄ + α log p)
//     expected; AMSSelectN skips the size sum when n is known, and
//     AMSSelectLanes runs L such selections in lockstep, a round's
//     reductions shared.
//   - AMSSelectBatched: the d-concurrent-trials refinement (Theorem 4).
//
// Only Algorithm 1 has a continuation form (KthStep, KthSortedStep and
// KthSortedLanesStep, async.go), because serve and the scaling suite run
// it under Machine.RunAsync; its state machine runs any number of
// selections as lanes that share every level's sweeps, and serve's Kth
// queries ride it that way. SmallestK, SmallestKN and the multisequence
// selections are straight-line blocking code over the same collectives,
// and Kth, SmallestKN and MSSelect drive Algorithm 1's state machine, one
// lane, with blocking waits.
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
	"commtopk/internal/commbuf"
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
	st := newKthStep(pe, local, -1, k, false, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}

func clamp(x, lo, hi int64) int64 { return min(max(x, lo), hi) }

// SmallestK returns this PE's share of the k globally smallest elements
// (exactly k in total across PEs, duplicates split by a prefix sum over
// ranks): a size sum and SmallestKN's split. The order of the returned
// slice is unspecified.
func SmallestK[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG) []K {
	n := coll.SumAll(pe, int64(len(local)))
	v, below, take := SmallestKN(pe, local, n, k, rng)
	switch k {
	case 0:
		return nil
	case n:
		return slices.Clone(local)
	}
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

// SmallestKN is the split behind SmallestK, for a caller that knows n, the
// global element count (the sum of len(local) over all PEs, not checked).
// This PE's share of the k globally smallest elements is its below
// elements less than v and the first take of its elements equal to v, in
// local order: the tie group of v is split by a prefix sum over the PEs'
// tie counts, lower ranks first. The share is empty for k = 0 and all of
// local for k = n (below = len(local)); v is then the zero value and no
// message is sent. Otherwise it is the unsorted selection of v (Kth
// without its size sum), the result's local rank split read off the
// selection's narrowing history without a pass over local, one SumAll
// of the counts below v and one ExScanSum of the tie counts. Collective.
func SmallestKN[K cmp.Ordered](pe *comm.PE, local []K, n, k int64, rng *xrand.RNG) (v K, below, take int) {
	if k < 0 || k > n {
		panic(fmt.Sprintf("sel: k %d out of range 0..%d", k, n))
	}
	if k == 0 || k == n {
		if k == n {
			below = len(local)
		}
		return v, below, 0
	}
	st := newKthStep(pe, local, n, k, false, rng, nil, false)
	comm.RunSteps(pe, st)
	v = st.res
	below, equal := st.localRank()
	st.release(pe)
	globLo := coll.SumAll(pe, int64(below))
	take = int(clamp(k-globLo-coll.ExScanSum(pe, int64(equal)), 0, int64(equal)))
	return v, below, take
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
// (Appendix A), so those prefixes — together at most kp elements, each
// one ascending — are a locally sorted input of which it is the rank-k
// element. MSSelect selects it with the sorted form of Algorithm 1
// (KthSortedStep's state machine, async.go): one size all-reduce, then
// one binomial-tree up- and down-sweep per level — p·⌈log₂ p⌉ +
// 2(p−1)·levels messages. That is Theorem 1's latency on n ≤ kp
// elements, O(α log kp) expected, where Theorem 16's random-pivot loop
// costs O(α log² kp) in four collectives per iteration. Local work is
// O(log min(k, len)) per level plus the CountLE of the answer, and
// O(min(k, len)) once to copy the prefix of a Seq that is not a SliceSeq
// (a SliceSeq's prefix is a sub-slice).
func MSSelect[K cmp.Ordered](pe *comm.PE, s Seq[K], k int64, shared *xrand.RNG) (K, int) {
	st, buf := newMSKth(pe, s, k, shared)
	comm.RunSteps(pe, st)
	v := st.res
	st.release(pe)
	buf.release(pe)
	return v, s.CountLE(v)
}

// msBuf is the pooled per-PE state of one exact multisequence selection:
// the sampling stream, reseeded per use and read by the selection through
// a pointer, and a non-slice Seq's prefix.
type msBuf[K cmp.Ordered] struct {
	rng    xrand.RNG
	prefix []K
}

// newMSKth builds the selection MSSelect runs: the sorted-form kthStep on
// this PE's first min(k, len) elements of s, sampling from a per-PE
// stream seeded by one draw of shared.
func newMSKth[K cmp.Ordered](pe *comm.PE, s Seq[K], k int64, shared *xrand.RNG) (*kthStep[K], *msBuf[K]) {
	buf := comm.GetPooled[msBuf[K]](pe)
	m := int(min(int64(s.Len()), max(k, 0)))
	var prefix []K
	if sl, ok := s.(SliceSeq[K]); ok {
		prefix = sl[:m]
	} else {
		prefix = buf.prefix[:0]
		for i := 0; i < m; i++ {
			prefix = append(prefix, s.At(i))
		}
		buf.prefix = prefix
	}
	buf.rng.SeedPE(int64(shared.Uint64()), pe.Rank())
	return newKthStep(pe, prefix, -1, k, true, &buf.rng, nil, false), buf
}

func (b *msBuf[K]) release(pe *comm.PE) {
	clear(b.prefix[:cap(b.prefix)]) // keys may hold references
	comm.PutPooled(pe, b)
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
	return amsOne(pe, s, -1, kmin, kmax, rng, 1)
}

// AMSSelectBatched is AMSSelect with d concurrent Bernoulli trials per
// round (Theorem 4): the d candidate pivots share one vector-valued
// reduction, trading O(βd) volume for a constant expected round count
// already when k̄ − k̲ = Ω(k̄/d).
func AMSSelectBatched[K cmp.Ordered](pe *comm.PE, s Seq[K], kmin, kmax int64, d int, rng *xrand.RNG) AMSResult[K] {
	if d < 1 {
		panic("sel: AMSSelectBatched needs d >= 1")
	}
	return amsOne(pe, s, -1, kmin, kmax, rng, d)
}

// AMSSelectN is AMSSelect for a caller that already knows the global
// element count n (the sum of s.Len() over all PEs, not checked): the
// size all-reduce is skipped; everything else — semantics, panics, per-PE
// RNG consumption and the rest of the metered schedule — is AMSSelect's.
func AMSSelectN[K cmp.Ordered](pe *comm.PE, s Seq[K], n, kmin, kmax int64, rng *xrand.RNG) AMSResult[K] {
	return amsOne(pe, s, max(n, 0), kmin, kmax, rng, 1)
}

// # Flexible selection runs in lanes
//
// AMSSelectLanes is Algorithm 2 over L independent lanes — L flexible
// selections, each with its own sequence, interval [k̲, k̄] and window,
// run in lockstep. A round is two vector all-reductions whatever L is:
// one over the active lanes' candidate thresholds (d per lane; a lane
// whose whole window fits in k̄ sends its window maximum instead) and one
// over the ranks of those candidates. A lane that lands drops out of the
// vectors, and the selection ends when the last one has. So L selections
// cost the startups of the slowest one, not of all of them (DTA's m
// lists, Theorem 6's α·log p per search step). A lane's slot carries its
// reduction direction (laneCand), so min- and max-sampled lanes share one
// vector. AMSSelect is the one-lane case with a size sum first.
//
// Vectors stay on coll's recursive-doubling path while they are shorter
// than 4r words (r the largest power of two ≤ p): laneCand[uint64] is 2
// words, so up to 2r candidate slots per round; longer vectors take the
// reduce-scatter path — the same result in 2⌈log₂ r⌉ rounds.

// AMSLane is one lane of AMSSelectLanes: the flexible selection of the
// KMin ≤ k ≤ KMax globally smallest elements of Seq, whose global length
// (the sum of Seq.Len() over all PEs, not checked) is N. Res receives the
// lane's result.
type AMSLane[K cmp.Ordered] struct {
	Seq        Seq[K]
	KMin, KMax int64
	N          int64
	Res        AMSResult[K]
}

// AMSSelectLanes runs one flexible selection per lane in lockstep (see
// above), with no size sum. On return each lane's Res holds what
// AMSSelectN would return for it, up to RNG draws: the lanes draw from
// rng in lane order. lanes must be the same length on every PE; one lane
// has the metered schedule of AMSSelectN.
func AMSSelectLanes[K cmp.Ordered](pe *comm.PE, lanes []AMSLane[K], rng *xrand.RNG) {
	for _, l := range lanes {
		checkAMSRange(l.KMin, l.KMax)
	}
	b := getAMSBuf[K](pe)
	b.run(pe, lanes, false, rng, 1)
	comm.PutPooled(pe, b)
}

func checkAMSRange(kmin, kmax int64) {
	if kmin < 1 || kmax < kmin {
		panic(fmt.Sprintf("sel: AMSSelect invalid range [%d, %d]", kmin, kmax))
	}
}

// amsOne is the one-lane selection on s; n < 0 sums the length first.
func amsOne[K cmp.Ordered](pe *comm.PE, s Seq[K], n, kmin, kmax int64, rng *xrand.RNG, d int) AMSResult[K] {
	checkAMSRange(kmin, kmax)
	b := getAMSBuf[K](pe)
	b.one[0] = AMSLane[K]{Seq: s, KMin: kmin, KMax: kmax, N: n}
	b.run(pe, b.one[:], n < 0, rng, d)
	res := b.one[0].Res
	b.one[0] = AMSLane[K]{}
	comm.PutPooled(pe, b)
	return res
}

// laneCand is one candidate slot of a round's threshold reduction: the
// tagged optional value plus the direction it is reduced in. A lane's
// direction depends only on its global window, so every PE sets the same
// Max on the same slot. It is as many words as tagged[K].
type laneCand[K any] struct {
	Has, Max bool
	Val      K
}

func reduceLaneCand[K cmp.Ordered](a, b laneCand[K]) laneCand[K] {
	switch {
	case !a.Has:
		return b
	case !b.Has:
		return a
	case a.Max && b.Val > a.Val, !a.Max && b.Val < a.Val:
		return b
	}
	return a
}

// amsWindow is one lane's search state: the local window [lo, hi), the
// count accepted below it, the interval and global size left in it.
type amsWindow struct {
	lo, hi       int
	accepted     int64
	kminR, kmaxR int64
	nR           int64
	slot         int // the lane's first slot in this round's candidate vector
	useMin       bool
	all          bool // this round's slot is the window maximum
	done         bool
}

const amsMaxRounds = 60

// amsBuf is the pooled per-PE state of a flexible selection, kept across
// uses so that steady state allocates nothing: the one-lane entries'
// lane, every lane's window, and a round's local candidates, their global
// reductions vs, the local ranks js and the global ranks ks (the size sum
// reuses js and ks).
type amsBuf[K cmp.Ordered] struct {
	one    [1]AMSLane[K]
	win    []amsWindow
	cands  []laneCand[K]
	vs     []laneCand[K]
	js, ks []int64
	// The reduction operator, built once: a generic function's value
	// carries its type dictionary and would allocate at every use.
	opCand func(a, b laneCand[K]) laneCand[K]
}

func getAMSBuf[K cmp.Ordered](pe *comm.PE) *amsBuf[K] {
	b := comm.GetPooled[amsBuf[K]](pe)
	if b.opCand == nil {
		b.opCand = reduceLaneCand[K]
	}
	return b
}

// allReduceInto is the vector all-reduce of x into dst's backing, grown
// as needed, which it returns.
func allReduceInto[T any](pe *comm.PE, dst, x []T, op func(a, b T) T) []T {
	dst = commbuf.Resize(dst[:0], len(x))
	comm.RunSteps(pe, coll.AllReduceIntoStep(pe, dst, x, op, nil))
	return dst
}

// run is Algorithm 2 over lanes: the lane-size sum (sumN), rounds until
// every lane has landed, and the exact fallback for the lanes still
// searching after amsMaxRounds (a degenerate interval).
func (b *amsBuf[K]) run(pe *comm.PE, lanes []AMSLane[K], sumN bool, rng *xrand.RNG, d int) {
	if sumN {
		b.js = b.js[:0]
		for _, l := range lanes {
			b.js = append(b.js, int64(l.Seq.Len()))
		}
		b.ks = allReduceInto(pe, b.ks, b.js, addInt64)
	}
	b.win = commbuf.Resize(b.win[:0], len(lanes))
	for i := range lanes {
		l := &lanes[i]
		if sumN {
			l.N = b.ks[i]
		}
		if l.KMin > l.N {
			panic(fmt.Sprintf("sel: AMSSelect k̲=%d exceeds input size %d", l.KMin, l.N))
		}
		b.win[i] = amsWindow{hi: l.Seq.Len(), kminR: l.KMin, kmaxR: l.KMax, nR: l.N}
	}
	for round := 1; round <= amsMaxRounds; round++ {
		if !b.round(pe, lanes, rng, d, round) {
			return
		}
	}
	for i := range lanes {
		l, w := &lanes[i], &b.win[i]
		if w.done {
			continue
		}
		// The shared stream must be identical across PEs: derive it from
		// quantities all PEs agree on.
		shared := xrand.New(int64(0x5eed + l.KMin + 31*l.KMax + 977*l.N))
		v, _ := MSSelect[K](pe, subSeq[K]{s: l.Seq, lo: w.lo, hi: w.hi}, w.kminR, shared)
		l.Res = AMSResult[K]{
			Threshold: v,
			Count:     w.accepted + w.kminR,
			LocalLen:  l.Seq.CountLE(v),
			Rounds:    amsMaxRounds,
		}
	}
}

// round is one estimation round over the lanes still searching; it
// reports whether any lane is still searching after it.
func (b *amsBuf[K]) round(pe *comm.PE, lanes []AMSLane[K], rng *xrand.RNG, d, round int) bool {
	// Draw d candidate thresholds per lane with the dual estimator: a lane
	// whose k̄ lies in the lower half of its window samples the window from
	// the bottom at amsRho's rate and proposes the least sample (useMin),
	// any other lane the mirror image from the top. Absent candidates must
	// read as zero.
	b.cands = b.cands[:0]
	for i := range lanes {
		w := &b.win[i]
		if w.done {
			continue
		}
		s := lanes[i].Seq
		w.slot = len(b.cands)
		w.all = w.kmaxR >= w.nR
		if w.all {
			// Everything remaining fits: threshold is the global max.
			c := laneCand[K]{Max: true}
			if w.hi-w.lo > 0 {
				c.Has, c.Val = true, s.At(w.hi-1)
			}
			b.cands = append(b.cands, c)
			continue
		}
		w.useMin = w.kmaxR < w.nR-w.kmaxR
		for t := 0; t < d; t++ {
			c := laneCand[K]{Max: !w.useMin}
			if w.useMin {
				x := rng.Geometric(amsRho(w.kminR, w.kmaxR))
				if x <= int64(w.hi-w.lo) {
					c.Has, c.Val = true, s.At(w.lo+int(x)-1)
				}
			} else {
				x := rng.Geometric(amsRho(w.nR-w.kmaxR+1, w.nR-w.kminR+1))
				if x <= int64(w.hi-w.lo) {
					c.Has, c.Val = true, s.At(w.hi-int(x))
				}
			}
			b.cands = append(b.cands, c)
		}
	}
	if len(b.cands) == 0 {
		return false
	}
	b.vs = allReduceInto(pe, b.vs, b.cands, b.opCand)
	// Window-maximum lanes are done; rank all other candidates with one
	// vector-valued sum.
	b.js = b.js[:0]
	for i := range lanes {
		w := &b.win[i]
		if w.done {
			continue
		}
		s := lanes[i].Seq
		if w.all {
			lanes[i].Res = AMSResult[K]{
				Threshold: b.vs[w.slot].Val,
				Count:     w.accepted + w.nR,
				LocalLen:  w.hi,
				Rounds:    round,
			}
			w.done = true
			continue
		}
		for _, v := range b.vs[w.slot : w.slot+d] {
			if v.Has {
				b.js = append(b.js, int64(clampInt(s.CountLE(v.Val), w.lo, w.hi)-w.lo))
			} else {
				// No PE produced a candidate (all deviates overshot): treat
				// as "everything ≤ v", forcing the window logic to keep the
				// full window and retry.
				b.js = append(b.js, int64(w.hi-w.lo))
			}
		}
	}
	if len(b.js) == 0 {
		return false
	}
	b.ks = allReduceInto(pe, b.ks, b.js, addInt64)
	// Per lane: success check, then narrow to (largest under, smallest
	// over).
	c := 0
	active := false
	for i := range lanes {
		w := &b.win[i]
		if w.done {
			continue
		}
		b.narrow(&lanes[i], w, b.vs[w.slot:w.slot+d], b.js[c:c+d], b.ks[c:c+d], round)
		c += d
		active = active || !w.done
	}
	return active
}

// narrow lands lane l if one of its candidates vs' global ranks ks (local
// ranks js) falls in the interval left, and otherwise shrinks its window w
// to the tightest (largest under, smallest over) bracket.
func (b *amsBuf[K]) narrow(l *AMSLane[K], w *amsWindow, vs []laneCand[K], js, ks []int64, round int) {
	bestUnder := int64(-1)
	bestUnderJ := 0
	bestOver := w.nR
	bestOverJ := w.hi - w.lo
	for t, v := range vs {
		if !v.Has {
			continue
		}
		k := ks[t]
		switch {
		case k >= w.kminR && k <= w.kmaxR:
			l.Res = AMSResult[K]{
				Threshold: v.Val,
				Count:     w.accepted + k,
				LocalLen:  w.lo + int(js[t]),
				Rounds:    round,
			}
			w.done = true
			return
		case k < w.kminR && k > bestUnder:
			bestUnder, bestUnderJ = k, int(js[t])
		case k > w.kmaxR && k < bestOver:
			bestOver, bestOverJ = k, int(js[t])
		}
	}
	nROld := w.nR
	if bestUnder >= 0 {
		w.accepted += bestUnder
		w.kminR -= bestUnder
		w.kmaxR -= bestUnder
		w.nR -= bestUnder
		w.lo += bestUnderJ
		bestOverJ -= bestUnderJ
	}
	if bestOver < nROld {
		w.nR = bestOver - max(bestUnder, 0)
		w.hi = w.lo + bestOverJ
	}
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
