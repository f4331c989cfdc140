package sel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/qsel"
	"commtopk/internal/xrand"
)

// Continuation form of Algorithm 1. kthStep expresses unsorted selection
// as a comm.Stepper, so the full selection benchmark runs under
// Machine.RunAsync with O(w) mid-run goroutines. The blocking Kth drives
// the same stepper through comm.RunSteps: one implementation, both
// execution modes, bit-identical results and meters (pinned by the
// differential fuzz and the scaling suite's A/B twins).
//
// # One round trip per level
//
// A recursion level is one binomial-tree up-sweep and one down-sweep,
// 2(p−1) messages and 2⌈log₂ p⌉ rounds:
//
//   - Up (coll.ReduceConcatStep): every PE has split its window around
//     the level's pivots into [a: < lo | b: lo..hi | c: > hi]. The sweep
//     sums the band sizes (la, lb) and concatenates a Bernoulli sample of
//     the local middle bands — a sample of the window the recursion will
//     continue on if the answer lies in b, drawn before anyone knows that
//     it does.
//   - Down (coll.BroadcastScalarStep of one verdict): the root sends the
//     global band sizes (na, nb) and, picked from that sample, the next
//     level's pivots and sampling rate. Every PE derives the same branch
//     from (na, nb), narrows its window, and splits it around the new
//     pivots for the next up-sweep.
//
// The pivots are Floyd–Rivest's: with m sample elements of a window of n
// whose rank-k element is wanted, the sample ranks k·m/n ± Δ, Δ = m^(1/2+δ),
// δ = 1/10, extracted at the root with expected-linear order statistics
// (qsel.Select, in place on the borrowed concatenation). The rate needs
// no knob: a fraction c/m of the sample lies between the chosen pivots,
// so the next band holds about n·c/m elements and rate = min(1,
// target/(n·c/m)) keeps the expected sample at target = 4(√p + 8)
// elements, Θ(√p) as Theorem 1 needs (c counts by value, so a tie group
// on a pivot does not inflate the sample). When the rate reaches 1 the
// "sample" is the whole band, and the root answers from it instead of
// picking pivots: the residual problem needs no collective of its own.
//
// Level 0 has no pivots yet: the band is the whole window, sampled at
// min(1, target/n) — a "plain" sweep, always a hit. A speculation miss
// (the answer lies in a or c; Δ is ≈ 3σ of the sample rank, and 0.6–0.8 %
// of the levels on unique keys at p = 16 and 64 are misses) leaves the
// root with a sample of the wrong band; the PEs narrow to the right one
// and run a plain sweep on it. So do the two other rare cases, an empty
// sample (rate 0 in the verdict) and a peeled tie group.
//
// Every level strictly shrinks the window — the pivots are elements of
// it, so no band that is kept is the whole of it except in the tie-peel
// case, which removes the lower pivot's tie group — or, on an empty
// sample, redraws; there is no depth cap.
//
// The state struct is pooled per PE (comm.GetPooled); the result-delivery
// closures handed to the sub-steppers and the sample buffer live in it
// across uses, so steady-state dispatch allocates nothing.
//
// The state machine has two window representations behind one code path.
// The unsorted forms copy the shard into the state's work buffer and
// split the window by partitioning it in place, Θ(window) per level.
// KthSortedStep (the caller states that its shard is ascending) uses the
// shard itself: an ascending slice already is the [a | b | c] layout, so
// the band sizes are binary searches and the shard is never written —
// O(log window + sample) per level. Sampling, pivot choice, every
// collective and every narrowing of win are the same code.

// kthStep phases.
const (
	kphInit     = iota // start the global size sum
	kphInitSum         // n known: validate k, set up the window
	kphLoop            // a level without pivots: k == 1 base case or a plain sweep
	kphMinWait         // k == 1 base case: harvest the min-reduction
	kphUp              // up-sweep done (the root has judged it): start the down-sweep
	kphVerdict         // harvest the verdict, branch, start the next up-sweep
	kphPeelWait        // tie-peel: harvest the global tie count and branch
	kphDone
)

// verdict is the down-sweep payload: the root's reading of one up-sweep.
type verdict[K any] struct {
	// na, nb are the global sizes of bands a and b of the level just
	// counted; every PE derives its branch from them.
	na, nb int64
	// lo, hi are the next level's pivots — or, when the up-sweep carried
	// the whole band (rate 1), lo is the answer.
	lo, hi K
	// rate is the next level's sampling rate of its middle band; 0 says
	// the root's sample was empty and the PEs must draw a fresh one.
	rate float64
}

// The branches of one level, a function of (na, nb) and state every PE
// shares.
const (
	brBelow = iota // the answer is in band a (a speculation miss)
	brAbove        // the answer is in band c (a miss)
	brTie          // equal pivots around the answer: it is the pivot
	brPeel         // band b is the whole window: peel the lower pivot's tie group
	brHit          // the answer is in band b, a strictly smaller window
)

type kthStep[K cmp.Ordered] struct {
	local []K
	k     int64
	rng   *xrand.RNG
	out   func(K)
	self  bool // self-release + out on completion (the *Step forms)
	// sorted: local is ascending and is the window itself, read-only
	// (KthSortedStep); otherwise the window is the work copy of local.
	sorted bool
	res    K

	// The recursion state, identical on every PE except win, la and lb:
	// win is the live candidate window, kRem/n the remaining rank and
	// global size; the level in flight splits win around [pivLo, pivHi]
	// (plain: no pivots, band b is all of win) and samples b at rate.
	win          []K
	kRem, n      int64
	target       float64 // expected sample size, 4(√p + 8)
	plain        bool
	pivLo, pivHi K
	rate         float64
	la, lb       int // local sizes of bands a and b
	nEqLocal     int // local size of the peeled tie group

	// Current collective sub-stepper and its harvested results.
	cur comm.Stepper
	i64 int64
	tg  tagged[K]
	v   verdict[K]

	// Buffers that survive pooling: the up-sweep header and the local
	// sample (both copied by the collective before Step returns), and the
	// unsorted forms' working copy of the shard, which win slices.
	hdr    [2]int64
	sample []K
	work   []K

	// Cached result-delivery closures and operator func values (one
	// allocation per pooled object, not per op — a func value built in a
	// generic context carries the type dictionary and would otherwise
	// heap-allocate at every use). The closures capture only s;
	// everything else is read through fields at call time.
	onI64     func(int64)
	onTag     func(tagged[K])
	onUp      func([]int64, []K)
	onVerdict func(verdict[K])
	opMin     func(a, b tagged[K]) tagged[K]

	phase int
}

func newKthStep[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG, out func(K), self bool) *kthStep[K] {
	s := comm.GetPooled[kthStep[K]](pe)
	s.local, s.k, s.rng, s.out, s.self = local, k, rng, out, self
	s.sorted = false
	s.phase = kphInit
	s.cur = nil
	if s.onI64 == nil {
		s.onI64 = func(v int64) { s.i64 = v }
		s.onTag = func(v tagged[K]) { s.tg = v }
		s.onUp = func(sums []int64, all []K) { s.judge(sums, all) }
		s.onVerdict = func(v verdict[K]) { s.v = v }
		s.opMin = minTagged[K]
	}
	return s
}

// KthStep is the continuation form of Kth: out (optional) receives the
// element of global rank k on every PE. Semantics, panics, RNG
// consumption and the metered schedule match Kth exactly — Kth is this
// stepper driven with blocking waits. One size all-reduce, then per level
// one up-sweep and one down-sweep of a binomial tree (see the file
// comment); local work Θ(window) per level.
func KthStep[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	return newKthStep(pe, local, k, rng, out, true)
}

// KthNStep is KthStep for a caller that already knows the global element
// count n (the sum of len(local) over all PEs, not checked): the size
// all-reduce is skipped, everything else is KthStep.
func KthNStep[K cmp.Ordered](pe *comm.PE, local []K, n, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	s := newKthStep(pe, local, k, rng, out, true)
	s.i64 = n
	s.phase = kphInitSum
	return s
}

// KthSortedStep is KthNStep for a resident, locally sorted shard: sorted
// must be ascending and n must be the global element count —
// preconditions the caller states, as MSSelect's callers do for theirs;
// neither is checked. In exchange the shard is never written or copied
// (it may be shared by any number of concurrent selections) and local
// work per recursion level is O(log len(sorted) + sample) instead of a
// scan. A query is nothing but tree sweeps: 2(p−1) messages per level.
// The sample reads the same window positions with the same RNG draws per
// level as KthStep and the collectives are identical, but on the same
// multiset the two forms see differently ordered windows, so their pivot
// walks (and meters) differ; the answer is exact in both.
func KthSortedStep[K cmp.Ordered](pe *comm.PE, sorted []K, n, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	s := newKthStep(pe, sorted, k, rng, out, true)
	s.sorted = true
	s.i64 = n
	s.phase = kphInitSum
	return s
}

// release returns the state to the PE pool, keeping the cached closures
// and the buffers (and their one-time allocations) for the next use. The
// work copy is not cleared: that would cost Θ(window) per query.
func (s *kthStep[K]) release(pe *comm.PE) {
	var zero K
	s.local, s.win, s.rng, s.out = nil, nil, nil, nil
	s.cur = nil
	s.res, s.pivLo, s.pivHi = zero, zero, zero
	s.tg, s.v = tagged[K]{}, verdict[K]{}
	s.sample = s.sample[:cap(s.sample)]
	clear(s.sample) // keys may hold references
	comm.PutPooled(pe, s)
}

// bands splits w around [lo, hi]: la elements < lo come first, then lb
// elements in lo..hi. The unsorted form rearranges w into that layout;
// a sorted w already has it and is only searched.
func (s *kthStep[K]) bands(w []K, lo, hi K) (la, lb int) {
	if !s.sorted {
		return qsel.PartitionRange(w, lo, hi)
	}
	la = SliceSeq[K](w).CountLess(lo)
	return la, SliceSeq[K](w[la:]).CountLE(hi)
}

// winMin is the window's minimum as a reduction operand (no value on a
// PE whose window is empty).
func (s *kthStep[K]) winMin() tagged[K] {
	switch {
	case len(s.win) == 0:
		return tagged[K]{}
	case s.sorted:
		return tagged[K]{Has: true, Val: s.win[0]}
	}
	return tagged[K]{Has: true, Val: slices.Min(s.win)}
}

// setUp starts the recursion on the whole input, of global size n.
func (s *kthStep[K]) setUp(pe *comm.PE, n int64) {
	if s.k < 1 || s.k > n {
		panic(fmt.Sprintf("sel: rank %d out of range 1..%d", s.k, n))
	}
	s.win = s.local
	if !s.sorted {
		s.work = append(s.work[:0], s.local...)
		s.win = s.work
	}
	s.kRem, s.n = s.k, n
	s.target = 4 * (math.Sqrt(float64(pe.P())) + 8)
	s.phase = kphLoop
}

// startSweep splits the window around the level's pivots, samples the
// middle band at the level's rate and launches the up-sweep.
func (s *kthStep[K]) startSweep(pe *comm.PE) {
	s.la, s.lb = 0, len(s.win)
	if !s.plain {
		s.la, s.lb = s.bands(s.win, s.pivLo, s.pivHi)
	}
	band := s.win[s.la : s.la+s.lb]
	if s.rate < 1 {
		sample := s.sample[:0]
		sk := xrand.NewSkipSampler(s.rng, s.rate)
		for idx := sk.Next(); idx < int64(len(band)); idx = sk.Next() {
			sample = append(sample, band[idx])
		}
		s.sample, band = sample, sample
	}
	s.hdr[0], s.hdr[1] = int64(s.la), int64(s.lb)
	s.cur = coll.ReduceConcatStep(pe, 0, s.hdr[:], band, s.onUp)
	s.phase = kphUp
}

// branch classifies the level just counted. It reads only state that is
// the same on every PE, so all of them — and the root, one sweep earlier
// — take the same branch.
func (s *kthStep[K]) branch(na, nb int64) int {
	switch {
	case na >= s.kRem:
		return brBelow
	case na+nb < s.kRem:
		return brAbove
	case s.plain || s.rate >= 1:
		return brHit // no pivots to tie on, or the root holds all of band b
	case s.pivLo == s.pivHi:
		return brTie
	case nb == s.n:
		return brPeel
	}
	return brHit
}

// judge is the up-sweep's callback: on the root (sums is nil elsewhere)
// it turns the band sizes and the concatenated band sample, a borrowed
// buffer it may reorder, into the verdict the down-sweep carries.
func (s *kthStep[K]) judge(sums []int64, all []K) {
	if sums == nil {
		return
	}
	v := verdict[K]{na: sums[0], nb: sums[1]}
	if s.branch(v.na, v.nb) == brHit {
		// The sample is one of the next window: band b, rank kRem, size n.
		kRem, n, m := s.kRem-v.na, v.nb, int64(len(all))
		switch {
		case s.rate >= 1:
			if m != n {
				panic(fmt.Sprintf("sel: residual of %d elements gathered as %d", n, m))
			}
			v.lo = qsel.Select(all, int(kRem-1))
		case m > 0:
			r := kRem * m / n
			delta := int64(math.Ceil(math.Pow(float64(m), 0.5+0.1)))
			iLo := int(clamp(r-delta, 0, m-1))
			iHi := int(clamp(r+delta, 0, m-1))
			// Select leaves all[iLo:] ≥ lo, so the upper pivot is an order
			// statistic of that part.
			v.lo = qsel.Select(all, iLo)
			v.hi = qsel.Select(all[iLo:], iHi-iLo)
			var c int64
			for _, e := range all {
				if v.lo <= e && e <= v.hi {
					c++
				}
			}
			v.rate = min(1, s.target*float64(m)/(float64(n)*float64(c)))
		}
	}
	s.v = v
}

func addInt64(a, b int64) int64 { return a + b }

// finish delivers the result: the *Step forms release themselves and call
// out; the blocking driver harvests res and releases explicitly.
func (s *kthStep[K]) finish(pe *comm.PE, v K) *comm.RecvHandle {
	s.res = v
	s.phase = kphDone
	if s.self {
		out := s.out
		s.release(pe)
		if out != nil {
			out(v)
		}
	}
	return nil
}

func (s *kthStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case kphInit:
			s.cur = coll.AllReduceScalarStep(pe, int64(len(s.local)), addInt64, s.onI64)
			s.phase = kphInitSum
		case kphInitSum:
			s.setUp(pe, s.i64)
		case kphLoop:
			if s.kRem == 1 {
				// Base case of Algorithm 1: a single min-reduction.
				s.cur = coll.AllReduceScalarStep(pe, s.winMin(), s.opMin, s.onTag)
				s.phase = kphMinWait
				continue
			}
			s.plain = true
			s.rate = min(1, s.target/float64(s.n))
			s.startSweep(pe)
		case kphMinWait:
			return s.finish(pe, s.tg.Val)
		case kphUp:
			s.cur = coll.BroadcastScalarStep(pe, 0, s.v, s.onVerdict)
			s.phase = kphVerdict
		case kphVerdict:
			v := s.v
			switch s.branch(v.na, v.nb) {
			case brBelow:
				s.win = s.win[:s.la]
				s.n = v.na
				s.phase = kphLoop
			case brAbove:
				s.win = s.win[s.la+s.lb:]
				s.kRem -= v.na + v.nb
				s.n -= v.na + v.nb
				s.phase = kphLoop
			case brTie:
				// The k-th element falls inside one big tie group.
				return s.finish(pe, s.pivLo)
			case brPeel:
				// No shrinkage: every remaining element is in lo..hi. Count
				// the lower pivot's tie group; the answer is in it or above it.
				_, s.nEqLocal = s.bands(s.win[s.la:s.la+s.lb], s.pivLo, s.pivLo)
				s.cur = coll.AllReduceScalarStep(pe, int64(s.nEqLocal), addInt64, s.onI64)
				s.phase = kphPeelWait
			default:
				s.win = s.win[s.la : s.la+s.lb]
				s.kRem -= v.na
				s.n = v.nb
				switch {
				case s.rate >= 1:
					return s.finish(pe, v.lo) // the root held the whole band
				case v.rate == 0:
					s.phase = kphLoop // empty sample: draw again
				default:
					s.plain = false
					s.pivLo, s.pivHi, s.rate = v.lo, v.hi, v.rate
					s.startSweep(pe)
				}
			}
		case kphPeelWait:
			nEq := s.i64
			if s.kRem-s.v.na <= nEq {
				return s.finish(pe, s.pivLo)
			}
			s.win = s.win[s.la+s.nEqLocal : s.la+s.lb]
			s.kRem -= s.v.na + nEq
			s.n = s.v.nb - nEq
			s.phase = kphLoop
		default:
			return nil
		}
	}
}
