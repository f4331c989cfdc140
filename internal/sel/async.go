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

// Continuation form of Algorithm 1, the package's one state machine.
// kthStep expresses selection as a comm.Stepper, so serve's Kth and
// DeleteMin (KthSortedStep) and the scaling suite run it under
// Machine.RunAsync with O(w) mid-run goroutines. The blocking Kth,
// SmallestKN and MSSelect drive the same stepper through comm.RunSteps:
// one implementation, both execution modes, bit-identical results and
// meters (pinned by the differential fuzz and the scaling suite's A/B
// twins).
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
// whose rank-k element is wanted, the sample ranks k·m/n ± Δ, extracted
// at the root with expected-linear order statistics (qsel.Select, in
// place on the borrowed concatenation). The rate needs no knob: a
// fraction c/m of the sample lies between the chosen pivots, so the next
// band holds about n·c/m elements and rate = min(1, target/(n·c/m))
// keeps the expected sample at target elements, Θ(√p) as Theorem 1 needs
// (c counts by value, so a tie group on a pivot does not inflate the
// sample). When the rate reaches 1 the "sample" is the whole band, and
// the root answers from it instead of picking pivots: the residual
// problem needs no collective of its own.
//
// Level 0 has no pivots yet: the band is the whole window, sampled at
// min(1, target/n) — a "plain" sweep, always a hit. A speculation miss
// (the answer lies in a or c) leaves the root with a sample of the wrong
// band; the PEs narrow to the right one and run a plain sweep on it. So
// do the two other rare cases, an empty sample (rate 0 in the verdict)
// and a peeled tie group.
//
// The two forms price a miss differently, so each has its own level
// rule, fixed in setUp (target) and judge (Δ):
//
//   - Unsorted: target 4(√p + 8), Δ = m^(1/2+δ), δ = 1/10, ≈ 3σ of the
//     sample rank. A miss costs a Θ(window) pass (qsel.Keep or a rebuild)
//     besides its sweep, so the wide Δ keeps misses rare: 0.6–0.8 % of
//     the levels on unique keys at p = 16 and 64. A level shrinks the
//     window by m/2Δ ≈ 2.4.
//   - Sorted: target 8(√p + 8), Δ = ⌈¾√m⌉, ≈ 1.5σ. A miss costs one sweep
//     and no scan, so a sample twice as large with pivots twice as tight
//     shrinks the window by m/2Δ ≈ ⅔√m per level (≈ 6.5 at p = 16), and
//     the 9–15 % of pivot levels that miss cost less than the levels it
//     saves: 4–6.3 sweeps per query instead of 6.3–11 on random keys at
//     p = 16 and 64 (TestKthSortedSweepsPerQuery). The larger sample
//     alone, at Δ = m^0.6, would cost words: more selections would end in
//     a whole-band gather.
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
// In the unsorted forms every window is the shard's elements inside a
// value interval (open, closed or unbounded ends, bounds), kept in the
// shard's order. Level 0 samples the shard itself; a split is one
// branch-free pass (qsel.SplitBand) that counts band a and writes band b
// densely into the state's work buffer, Θ(window) per level, and never
// writes the shard. The band goes beside the window in work when it fits,
// so the window stays readable; a speculation miss then compacts band a
// or c out of it in place (qsel.Keep), and otherwise rebuilds it from the
// shard with the window's interval — the same elements in the same order
// either way. KthSortedStep (the caller states that its shard is
// ascending) uses the shard itself: an ascending slice already is the
// [a | b | c] layout, so the band sizes are binary searches and the shard
// is never written — O(log window + sample) per level. Sampling, pivot
// choice, every collective and every branch are the same code; only the
// level rule's two constants differ.

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
	// (KthSortedStep); otherwise the window is local until the first split
	// and lies in work from then on.
	sorted bool
	res    K

	// The recursion state, identical on every PE except win, band, la and
	// lb: win is the live candidate window, kRem/n the remaining rank and
	// global size; the level in flight splits win around [pivLo, pivHi]
	// (plain: no pivots, band b is all of win), band holds b, and b is
	// sampled at rate.
	win          []K
	band         []K
	kRem, n      int64
	target       float64 // expected sample size, 4(√p + 8), twice that sorted
	plain        bool
	pivLo, pivHi K
	rate         float64
	la, lb       int // local sizes of bands a and b
	nEqLocal     int // local size of the peeled tie group
	// nBelow counts the local elements below the window: every narrowing
	// that drops elements below it adds them. With resIn and resEq, set
	// by finish, it gives the result's local rank split (localRank)
	// without a pass over the shard.
	nBelow int
	resIn  []K
	resEq  int

	// The unsorted window's value interval; whether the window lies in
	// work (it is local before the first split); whether the split in
	// flight left win readable (band b went beside it, not over it).
	bounds    qsel.Interval[K]
	inWork    bool
	winIntact bool

	// Current collective sub-stepper and its harvested results.
	cur comm.Stepper
	i64 int64
	tg  tagged[K]
	v   verdict[K]

	// Buffers that survive pooling: the up-sweep header and the local
	// sample (both copied by the collective before Step returns), and the
	// unsorted forms' work buffer of len(local), which win and band slice
	// from the first split on.
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

// newKthStepN is newKthStep for a caller that already knows the global
// element count n (the sum of len(local) over all PEs, not checked): the
// size all-reduce is skipped, everything else is the same selection.
func newKthStepN[K cmp.Ordered](pe *comm.PE, local []K, n, k int64, rng *xrand.RNG, out func(K), self bool) *kthStep[K] {
	s := newKthStep(pe, local, k, rng, out, self)
	s.i64 = n
	s.phase = kphInitSum
	return s
}

// KthSortedStep is KthStep for a resident, locally sorted shard, without
// the size all-reduce: sorted must be ascending and n must be the global
// element count of the union of the slices the PEs pass (not of their
// whole shards: a caller that passes a sub-slice, a window or a prefix,
// passes that union's size and a rank inside it) — preconditions the
// caller states, as MSSelect's callers do for theirs; neither is checked. In exchange the shard is never written
// or copied (it may be shared by any number of concurrent selections) and
// local work per recursion level is O(log len(sorted) + sample) instead of
// a scan. A query is nothing but tree sweeps: 2(p−1) messages per level.
// A speculation miss costs it one sweep and no scan, so it has a level
// rule of its own (see the file comment): a sample of 8(√p + 8), twice
// KthStep's, and pivots ⌈¾√m⌉ sample ranks either side of the target
// instead of m^0.6, which takes about half as many levels on random keys.
// Sampling, pivot choice and the collectives are otherwise KthStep's
// code; the two forms' pivot walks (and meters) differ, and the answer is
// exact in both.
func KthSortedStep[K cmp.Ordered](pe *comm.PE, sorted []K, n, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	s := newKthStepN(pe, sorted, n, k, rng, out, true)
	s.sorted = true
	return s
}

// release returns the state to the PE pool, keeping the cached closures
// and the buffers (and their one-time allocations) for the next use. No
// slice of the caller's shard survives it (a pooled state would pin a
// retired server's sorted shard). The work buffer is not cleared: that
// would cost Θ(window) per query.
func (s *kthStep[K]) release(pe *comm.PE) {
	var zero K
	s.local, s.win, s.band, s.resIn, s.rng, s.out = nil, nil, nil, nil, nil, nil
	s.cur = nil
	s.res, s.pivLo, s.pivHi = zero, zero, zero
	s.bounds = qsel.Interval[K]{}
	s.tg, s.v = tagged[K]{}, verdict[K]{}
	s.sample = s.sample[:cap(s.sample)]
	clear(s.sample) // keys may hold references
	comm.PutPooled(pe, s)
}

// split splits the window around [pivLo, pivHi]: la elements are below
// pivLo and band holds the lb elements in pivLo..pivHi. A sorted window
// already is the [a | b | c] layout and is only searched. The unsorted
// form writes band b, in window order, to the front of work when that
// does not overlap the window (always on the first split, whose window
// is local), else right after the window when it fits there, else over
// the window itself, which is then no longer readable (winIntact).
func (s *kthStep[K]) split() {
	if s.sorted {
		s.la = SliceSeq[K](s.win).CountLess(s.pivLo)
		s.lb = SliceSeq[K](s.win[s.la:]).CountLE(s.pivHi)
		s.band = s.win[s.la : s.la+s.lb]
		return
	}
	w := len(s.win)
	if !s.inWork {
		if cap(s.work) < len(s.local) {
			s.work = make([]K, len(s.local))
		}
		s.work = s.work[:len(s.local)]
	}
	// Every window in work is a two-index slice of it, so its offset is
	// the difference of the capacities.
	off := cap(s.work) - cap(s.win)
	dst := s.work
	s.winIntact = true
	switch {
	case !s.inWork || off >= w:
		// The front of work is clear of the window.
	case off+2*w <= len(s.work):
		dst = s.work[off+w:]
	default:
		dst, s.winIntact = s.win, false
	}
	s.la, s.lb = qsel.SplitBand(dst, s.win, s.pivLo, s.pivHi)
	s.band = dst[:s.lb]
}

// narrow makes the part of the window beyond cut, a one-ended interval,
// the new window: band a or c, which the sorted form holds at win[i:j].
// The unsorted form compacts it out of the window when the split left
// that readable (in place once the window lies in work), comparing with
// cut's end only, and rebuilds it from the shard otherwise with the new
// window's whole interval — the same elements in the same order.
func (s *kthStep[K]) narrow(cut qsel.Interval[K], i, j int) {
	if s.sorted {
		s.win = s.win[i:j]
		return
	}
	iv := cut
	if cut.LoEnd == qsel.Unbounded {
		iv.Lo, iv.LoEnd = s.bounds.Lo, s.bounds.LoEnd
	} else {
		iv.Hi, iv.HiEnd = s.bounds.Hi, s.bounds.HiEnd
	}
	if !s.winIntact {
		s.take(s.work[:qsel.Keep(s.work, s.local, iv)], iv)
		return
	}
	dst := s.work
	if s.inWork {
		dst = s.win
	}
	s.take(dst[:qsel.Keep(dst, s.win, cut)], iv)
}

// take makes w, the part of the window inside iv, the new window.
func (s *kthStep[K]) take(w []K, iv qsel.Interval[K]) {
	s.win, s.bounds, s.inWork = w, iv, !s.sorted
}

// peel removes the lower pivot's tie group from band b, the whole window
// on a peel, and counts it locally. The unsorted form compacts the rest
// of the band to its front.
func (s *kthStep[K]) peel() {
	lb := len(s.band)
	if s.sorted {
		s.band = s.band[SliceSeq[K](s.band).CountLE(s.pivLo):]
	} else {
		above := qsel.Interval[K]{Lo: s.pivLo, LoEnd: qsel.Open}
		s.band = s.band[:qsel.Keep(s.band, s.band, above)]
	}
	s.nEqLocal = lb - len(s.band)
}

// peeled is the window's interval after a peel: band b without the lower
// pivot.
func (s *kthStep[K]) peeled() qsel.Interval[K] {
	return qsel.Interval[K]{Lo: s.pivLo, LoEnd: qsel.Open, Hi: s.pivHi, HiEnd: qsel.Closed}
}

// localRank is the result's local rank split after the selection has
// finished (before release): the number of local elements below it and
// of its local tie group — qsel.Rank(local, res), read off the narrowing
// history and one pass over the final window at most.
func (s *kthStep[K]) localRank() (below, equal int) {
	b, e := qsel.Rank(s.resIn, s.res)
	return s.nBelow + b, e + s.resEq
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

// setUp starts the recursion on the whole input, of global size n. It
// copies nothing: level 0's window is the shard itself.
func (s *kthStep[K]) setUp(pe *comm.PE, n int64) {
	if s.k < 1 || s.k > n {
		panic(fmt.Sprintf("sel: rank %d out of range 1..%d", s.k, n))
	}
	s.win = s.local
	s.bounds, s.inWork = qsel.Interval[K]{}, false
	s.kRem, s.n = s.k, n
	s.nBelow = 0
	s.target = 4 * (math.Sqrt(float64(pe.P())) + 8)
	if s.sorted { // a miss costs one sweep and no scan: see the file comment
		s.target *= 2
	}
	s.phase = kphLoop
}

// startSweep splits the window around the level's pivots, samples the
// middle band at the level's rate and launches the up-sweep.
func (s *kthStep[K]) startSweep(pe *comm.PE) {
	if s.plain {
		s.la, s.lb, s.band = 0, len(s.win), s.win
	} else {
		s.split()
	}
	band := s.band
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
			delta := math.Pow(float64(m), 0.5+0.1)
			if s.sorted { // see the file comment for the two rules
				delta = 0.75 * math.Sqrt(float64(m))
			}
			d := int64(math.Ceil(delta))
			iLo := int(clamp(r-d, 0, m-1))
			iHi := int(clamp(r+d, 0, m-1))
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

// finish delivers the result v, whose local tie group and the local
// elements below it that nBelow does not count lie in in, or are eq
// elements of the group: the *Step forms release themselves and call out;
// the blocking drivers harvest res (and localRank) and release
// explicitly.
func (s *kthStep[K]) finish(pe *comm.PE, v K, in []K, eq int) *comm.RecvHandle {
	s.res, s.resIn, s.resEq = v, in, eq
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
			return s.finish(pe, s.tg.Val, s.win, 0)
		case kphUp:
			s.cur = coll.BroadcastScalarStep(pe, 0, s.v, s.onVerdict)
			s.phase = kphVerdict
		case kphVerdict:
			v := s.v
			switch s.branch(v.na, v.nb) {
			case brBelow:
				s.narrow(qsel.Interval[K]{Hi: s.pivLo, HiEnd: qsel.Open}, 0, s.la)
				s.n = v.na
				s.phase = kphLoop
			case brAbove:
				s.nBelow += s.la + s.lb
				s.narrow(qsel.Interval[K]{Lo: s.pivHi, LoEnd: qsel.Open}, s.la+s.lb, len(s.win))
				s.kRem -= v.na + v.nb
				s.n -= v.na + v.nb
				s.phase = kphLoop
			case brTie:
				// The k-th element falls inside one big tie group: band b.
				s.nBelow += s.la
				return s.finish(pe, s.pivLo, nil, s.lb)
			case brPeel:
				// No shrinkage: every remaining element is in lo..hi. Count
				// the lower pivot's tie group; the answer is in it or above it.
				s.peel()
				s.cur = coll.AllReduceScalarStep(pe, int64(s.nEqLocal), addInt64, s.onI64)
				s.phase = kphPeelWait
			default:
				if !s.plain {
					s.take(s.band, qsel.Interval[K]{Lo: s.pivLo, LoEnd: qsel.Closed, Hi: s.pivHi, HiEnd: qsel.Closed})
				}
				s.nBelow += s.la
				s.kRem -= v.na
				s.n = v.nb
				switch {
				case s.rate >= 1:
					return s.finish(pe, v.lo, s.win, 0) // the root held the whole band
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
				return s.finish(pe, s.pivLo, nil, s.nEqLocal)
			}
			s.nBelow += s.nEqLocal
			s.take(s.band, s.peeled())
			s.kRem -= s.v.na + nEq
			s.n = s.v.nb - nEq
			s.phase = kphLoop
		default:
			return nil
		}
	}
}
