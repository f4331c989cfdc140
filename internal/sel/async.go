package sel

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/qsel"
	"commtopk/internal/xrand"
)

// Continuation form of Algorithm 1, the package's one state machine.
// kthStep expresses selection as a comm.Stepper over L lanes, each one
// selection. Serve runs every mux's in-flight Kth queries as the lanes of
// one KthSortedLanesStep under Machine.RunAsync; every other caller runs
// one lane: KthStep, KthSortedStep (serve's DeleteMin, bpq), the scaling
// suite, and the blocking Kth, SmallestKN and MSSelect, which drive the
// stepper through comm.RunSteps — one implementation, both execution
// modes, bit-identical results and meters (pinned by the differential
// fuzz, the scaling suite's A/B twins and TestKthGolden).
//
// # One round trip per level, for all lanes
//
// A recursion level is one binomial-tree up-sweep and one down-sweep,
// 2(p−1) messages and 2⌈log₂ p⌉ rounds, however many lanes ride it:
//
//   - Up (coll.ReduceConcatStep): every PE has split each lane's window
//     around the lane's pivots into [a: < lo | b: lo..hi | c: > hi]. The
//     sweep sums the band sizes (la, lb per lane) and concatenates, lane
//     by lane, a Bernoulli sample of the local middle bands — a sample of
//     the window the recursion will continue on if the answer lies in b,
//     drawn before anyone knows that it does. Past one lane the header
//     also carries the lanes' sample sizes, by which the sweep keeps each
//     lane's sample contiguous.
//   - Down (coll.BroadcastVecStep of one verdict per lane): the root sends
//     each lane's global band sizes (na, nb) and, picked from the lane's
//     sample, its next pivots and sampling rate. Every PE derives the same
//     branch from (na, nb), narrows the lane's window, and splits it
//     around the new pivots for the next up-sweep. Verdicts past the live
//     lanes announce lanes the root admitted (Feed): every PE admits as
//     many, in the same order, and they start with a plain sweep.
//
// A lane that needs a collective of its own — the size sum, the k = 1
// min-reduction, a tie count — runs it before the level's sweeps, lane
// after lane. A lane's pivot walk reads only its own window and stream,
// so its answer does not depend on which lanes share its levels; one lane
// sends exactly what a lone selection always sent.
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
// rule, fixed in newKthEngine (target) and judge (Δ):
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
// The state struct is pooled per PE (comm.GetPooled); the lanes, the
// result-delivery closures handed to the sub-steppers and the sample and
// verdict buffers live in it across uses, so steady-state dispatch
// allocates nothing.
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

// Lane phases: what a lane needs before the level's shared up-sweep.
const (
	lpSum      = iota // start the global size sum
	lpSetUp           // n known: validate k, set up the window
	lpLoop            // a level without pivots: k == 1 base case or a plain sweep
	lpMinWait         // k == 1 base case: harvest the min-reduction
	lpPeel            // tie peel: start the global tie count
	lpPeelWait        // harvest the tie count and branch
	lpSweep           // ready for the shared up-sweep
	lpDone
)

// kthStep phases.
const (
	kphAdmit   = iota // admit the lanes the verdict vector announced
	kphPrivate        // each lane in order runs its private collectives
	kphUp             // up-sweep done (the root has judged it): start the down-sweep
	kphVerdict        // apply every lane's verdict
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

// kthLane is one selection's per-PE state. Every field but win, band,
// la, lb, nEqLocal, nBelow and the window's representation is the same
// on every PE.
type kthLane[K cmp.Ordered] struct {
	local []K
	k     int64
	// rng is the lane's sampling stream, by value; ext, when not nil, is
	// the caller's stream it was copied from and is written back to when
	// the lane finishes.
	rng   xrand.RNG
	ext   *xrand.RNG
	id    int
	phase int
	// words, sends are the lane's meters on this PE under a feed (see
	// KthSortedLanesStep).
	words, sends int64
	// sorted: local is ascending and is the window itself, read-only
	// (KthSortedStep); otherwise the window is local until the first split
	// and lies in work from then on.
	sorted bool

	// The recursion state: win is the live candidate window, kRem/n the
	// remaining rank and global size; the level in flight splits win
	// around [pivLo, pivHi] (plain: no pivots, band b is all of win), band
	// holds b, and b is sampled at rate.
	win          []K
	band         []K
	kRem, n      int64
	plain        bool
	pivLo, pivHi K
	rate         float64
	la, lb       int // local sizes of bands a and b
	nEqLocal     int // local size of the peeled tie group
	// nBelow counts the local elements below the window: every narrowing
	// that drops elements below it adds them. With the result's resIn and
	// resEq it gives the result's local rank split (localRank) without a
	// pass over the shard.
	nBelow int
	v      verdict[K] // the level's verdict (a peel reads it after its count)

	// The unsorted window's value interval; whether the window lies in
	// work (it is local before the first split); whether the split in
	// flight left win readable (band b went beside it, not over it).
	bounds    qsel.Interval[K]
	inWork    bool
	winIntact bool

	// The unsorted forms' work buffer of len(local), which win and band
	// slice from the first split on. It survives the lane: a new lane in
	// the same slot of the pooled state reuses it.
	work []K
}

// kthStep is the selection engine: L lanes, each one selection, that
// share every level's two sweeps. A level first runs, lane by lane, the
// collectives only one lane needs (its size sum, its k = 1
// min-reduction, its tie count), then one up-sweep for every live lane
// and one down-sweep of their verdicts. A lane that answers drops out; a
// Feed (KthSortedLanesStep) adds lanes at the next level.
type kthStep[K cmp.Ordered] struct {
	lanes  []kthLane[K]
	sorted bool
	target float64 // expected sample size per lane, 4(√p + 8), twice that sorted
	feed   Feed[K]
	out    func(K)
	self   bool // self-release + out on completion (the *Step forms)

	// A one-lane selection without a feed leaves its result here, for out
	// or for the blocking drivers (res, localRank).
	res    K
	resIn  []K
	resEq  int
	nBelow int

	li    int // the lane whose private collectives run
	admit int // lanes the verdict vector announced and the feed has yet to hand over
	// Under a feed, the down-sweep's words and sends on this PE, which
	// every live lane is metered in full but for the other lanes' verdicts.
	downWords, downSends int64

	// Current collective sub-stepper and its harvested results.
	cur comm.Stepper
	i64 int64
	tg  tagged[K]

	// Buffers that survive pooling: the up-sweep header and the lanes'
	// samples (both copied by the collective before Step returns), and the
	// verdict vector.
	hdr      []int64
	sample   []K
	verdicts []verdict[K]

	// Cached result-delivery closures and operator func values (one
	// allocation per pooled object, not per op — a func value built in a
	// generic context carries the type dictionary and would otherwise
	// heap-allocate at every use). The closures capture only s;
	// everything else is read through fields at call time.
	onI64      func(int64)
	onTag      func(tagged[K])
	onUp       func([]int64, []K)
	onVerdicts func([]verdict[K])
	opMin      func(a, b tagged[K]) tagged[K]

	phase int
}

// newKthEngine draws a lanes engine with no lanes from the PE's pool.
func newKthEngine[K cmp.Ordered](pe *comm.PE, sorted bool, out func(K), self bool) *kthStep[K] {
	s := comm.GetPooled[kthStep[K]](pe)
	s.sorted, s.out, s.self, s.feed = sorted, out, self, nil
	s.lanes = s.lanes[:0]
	s.phase, s.li, s.admit = kphPrivate, 0, 0
	s.downWords, s.downSends = 0, 0
	s.cur = nil
	s.target = sampleTarget(pe.P(), sorted)
	if s.onI64 == nil {
		s.onI64 = func(v int64) { s.i64 = v }
		s.onTag = func(v tagged[K]) { s.tg = v }
		s.onUp = func(sums []int64, all []K) { s.judge(sums, all) }
		s.onVerdicts = func(v []verdict[K]) { s.verdicts = append(s.verdicts[:0], v...) }
		s.opMin = minTagged[K]
	}
	return s
}

// sampleTarget is the level rule's expected sample per lane on p PEs:
// 4(√p + 8), twice that in the sorted form, where a miss costs one sweep
// and no scan (see the file comment).
func sampleTarget(p int, sorted bool) float64 {
	t := 4 * (math.Sqrt(float64(p)) + 8)
	if sorted {
		t *= 2
	}
	return t
}

// OneSweepWindow is the largest window KthSortedStep gathers whole in its
// first up-sweep on p PEs, ⌊8(√p + 8)⌋, its sample target: a selection of
// a rank k > 1 inside a window of at most that many keys is one up-sweep
// and one down-sweep, 2(p−1) messages.
func OneSweepWindow(p int) int { return int(sampleTarget(p, true)) }

// newKthStep is the one-lane selection of rank k in local, whose global
// size is n (n < 0: a size all-reduce finds it), sampling from rng.
func newKthStep[K cmp.Ordered](pe *comm.PE, local []K, n, k int64, sorted bool, rng *xrand.RNG, out func(K), self bool) *kthStep[K] {
	s := newKthEngine(pe, sorted, out, self)
	l := s.addLane(local, n, k, 0)
	l.rng, l.ext = *rng, rng
	return s
}

// addLane appends a lane for rank k of local (global size n; n < 0: sum
// it first) and returns it; valid until the next addLane.
func (s *kthStep[K]) addLane(local []K, n, k int64, id int) *kthLane[K] {
	i := len(s.lanes)
	if i < cap(s.lanes) {
		s.lanes = s.lanes[:i+1]
	} else {
		s.lanes = append(s.lanes, kthLane[K]{})
	}
	l := &s.lanes[i]
	*l = kthLane[K]{local: local, k: k, n: n, id: id, sorted: s.sorted, work: l.work, phase: lpSetUp}
	if n < 0 {
		l.phase = lpSum
	}
	return l
}

// KthStep is the continuation form of Kth: out (optional) receives the
// element of global rank k on every PE. Semantics, panics, RNG
// consumption and the metered schedule match Kth exactly — Kth is this
// stepper driven with blocking waits. One size all-reduce, then per level
// one up-sweep and one down-sweep of a binomial tree (see the file
// comment); local work Θ(window) per level.
func KthStep[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	return newKthStep(pe, local, -1, k, false, rng, out, true)
}

// KthSortedStep is KthStep for a resident, locally sorted shard, without
// the size all-reduce: sorted must be ascending and n must be the global
// element count of the union of the slices the PEs pass (not of their
// whole shards: a caller that passes a sub-slice, a window or a prefix,
// passes that union's size and a rank inside it) — preconditions the
// caller states, as MSSelect's callers do for theirs; neither is checked.
// In exchange the shard is never written or copied (it may be shared by
// any number of concurrent selections) and local work per recursion level
// is O(log len(sorted) + sample) instead of a scan. A query is nothing
// but tree sweeps: 2(p−1) messages per level. A speculation miss costs it
// one sweep and no scan, so it has a level rule of its own (see the file
// comment): a sample of 8(√p + 8), twice KthStep's, and pivots ⌈¾√m⌉
// sample ranks either side of the target instead of m^0.6, which takes
// about half as many levels on random keys. Sampling, pivot choice and
// the collectives are otherwise KthStep's code; the two forms' pivot
// walks (and meters) differ, and the answer is exact in both. It is
// KthSortedLanesStep with one lane and no feed.
func KthSortedStep[K cmp.Ordered](pe *comm.PE, sorted []K, n, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	return newKthStep(pe, sorted, n, k, true, rng, out, true)
}

// Lane is one selection a Feed hands to KthSortedLanesStep: the element
// of rank K in the union of the PEs' ascending Sorted slices, whose global
// size is N (KthSortedStep's preconditions). Its sampling stream is
// xrand.NewPE(Seed, rank)'s; ID names it to Feed.Done.
type Lane[K cmp.Ordered] struct {
	Sorted []K
	N, K   int64
	Seed   int64
	ID     int
}

// A Feed supplies KthSortedLanesStep with lanes. Every PE's feed must
// hand over the same lanes in the same order.
type Feed[K cmp.Ordered] interface {
	// Ready is asked on rank 0 once per level, when the level's up-sweep
	// has arrived: how many lanes the feed can hand over now. The
	// selection admits them all, and its down-sweep tells every other PE
	// how many.
	Ready() int
	// Next hands over the feed's next lane — or, when that lane has not
	// reached this PE yet, the receive that brings it: the selection
	// suspends on it and asks again.
	Next(pe *comm.PE) (Lane[K], *comm.RecvHandle)
	// Done delivers lane id's answer on this PE with the lane's meters
	// there (see KthSortedLanesStep). The lane is gone from the selection.
	Done(pe *comm.PE, id int, v K, words, sends int64)
}

// KthSortedLanesStep runs KthSortedStep's selection for many lanes at
// once: it starts with the feed's next first lanes and, while any lane is
// live, admits at every level what the feed's Ready reports on rank 0.
// A level costs one up-sweep and one down-sweep however many lanes ride
// it — the header grows by 3 words and the verdict vector by one verdict
// per lane — plus the private collectives of the lanes that need one
// (a k = 1 min-reduction, a tie count). A lane's pivot walk depends only
// on its own window and stream, so its answer does not depend on which
// lanes share its levels. The stepper ends when no lane is live; it
// allocates nothing in the steady state.
//
// Every lane is metered what it would send alone, so summed over the
// PEs its meters are a lone KthSortedStep's on the same window and
// stream, whichever lanes shared its levels: on every PE, its private
// collectives' sends, of each down-sweep the sends and its verdict's
// words, and of each up-sweep the message and the [la, lb] header of a
// non-root PE plus its sample's words times the edges they travel to
// the root (a non-root PE's message carries its subtree's sample, so the
// sums agree). The machine sends less: every lane past the first in a
// level saves its up-sweep and down-sweep messages.
func KthSortedLanesStep[K cmp.Ordered](pe *comm.PE, feed Feed[K], first int) comm.Stepper {
	s := newKthEngine[K](pe, true, nil, true)
	s.feed, s.admit, s.phase = feed, first, kphAdmit
	return s
}

// release returns the state to the PE pool, keeping the cached closures
// and the buffers (and their one-time allocations) for the next use. No
// slice of a caller's shard survives it (a pooled state would pin a
// retired server's sorted shard). The work buffers are not cleared: that
// would cost Θ(window) per query.
func (s *kthStep[K]) release(pe *comm.PE) {
	var zero K
	slots := s.lanes[:cap(s.lanes)]
	for i := range slots {
		slots[i].drop()
	}
	s.lanes = slots[:0]
	s.resIn, s.out, s.feed, s.cur = nil, nil, nil, nil
	s.res = zero
	s.tg = tagged[K]{}
	s.sample = s.sample[:cap(s.sample)]
	clear(s.sample) // keys may hold references
	s.verdicts = s.verdicts[:cap(s.verdicts)]
	clear(s.verdicts)
	comm.PutPooled(pe, s)
}

// drop clears every reference of the lane but its work buffer.
func (l *kthLane[K]) drop() {
	*l = kthLane[K]{work: l.work}
}

// split splits the window around [pivLo, pivHi]: la elements are below
// pivLo and band holds the lb elements in pivLo..pivHi. A sorted window
// already is the [a | b | c] layout and is only searched. The unsorted
// form writes band b, in window order, to the front of work when that
// does not overlap the window (always on the first split, whose window
// is local), else right after the window when it fits there, else over
// the window itself, which is then no longer readable (winIntact).
func (l *kthLane[K]) split() {
	if l.sorted {
		l.la = SliceSeq[K](l.win).CountLess(l.pivLo)
		l.lb = SliceSeq[K](l.win[l.la:]).CountLE(l.pivHi)
		l.band = l.win[l.la : l.la+l.lb]
		return
	}
	w := len(l.win)
	if !l.inWork {
		if cap(l.work) < len(l.local) {
			l.work = make([]K, len(l.local))
		}
		l.work = l.work[:len(l.local)]
	}
	// Every window in work is a two-index slice of it, so its offset is
	// the difference of the capacities.
	off := cap(l.work) - cap(l.win)
	dst := l.work
	l.winIntact = true
	switch {
	case !l.inWork || off >= w:
		// The front of work is clear of the window.
	case off+2*w <= len(l.work):
		dst = l.work[off+w:]
	default:
		dst, l.winIntact = l.win, false
	}
	l.la, l.lb = qsel.SplitBand(dst, l.win, l.pivLo, l.pivHi)
	l.band = dst[:l.lb]
}

// narrow makes the part of the window beyond cut, a one-ended interval,
// the new window: band a or c, which the sorted form holds at win[i:j].
// The unsorted form compacts it out of the window when the split left
// that readable (in place once the window lies in work), comparing with
// cut's end only, and rebuilds it from the shard otherwise with the new
// window's whole interval — the same elements in the same order.
func (l *kthLane[K]) narrow(cut qsel.Interval[K], i, j int) {
	if l.sorted {
		l.win = l.win[i:j]
		return
	}
	iv := cut
	if cut.LoEnd == qsel.Unbounded {
		iv.Lo, iv.LoEnd = l.bounds.Lo, l.bounds.LoEnd
	} else {
		iv.Hi, iv.HiEnd = l.bounds.Hi, l.bounds.HiEnd
	}
	if !l.winIntact {
		l.take(l.work[:qsel.Keep(l.work, l.local, iv)], iv)
		return
	}
	dst := l.work
	if l.inWork {
		dst = l.win
	}
	l.take(dst[:qsel.Keep(dst, l.win, cut)], iv)
}

// take makes w, the part of the window inside iv, the new window.
func (l *kthLane[K]) take(w []K, iv qsel.Interval[K]) {
	l.win, l.bounds, l.inWork = w, iv, !l.sorted
}

// peel removes the lower pivot's tie group from band b, the whole window
// on a peel, and counts it locally. The unsorted form compacts the rest
// of the band to its front.
func (l *kthLane[K]) peel() {
	lb := len(l.band)
	if l.sorted {
		l.band = l.band[SliceSeq[K](l.band).CountLE(l.pivLo):]
	} else {
		above := qsel.Interval[K]{Lo: l.pivLo, LoEnd: qsel.Open}
		l.band = l.band[:qsel.Keep(l.band, l.band, above)]
	}
	l.nEqLocal = lb - len(l.band)
}

// peeled is the window's interval after a peel: band b without the lower
// pivot.
func (l *kthLane[K]) peeled() qsel.Interval[K] {
	return qsel.Interval[K]{Lo: l.pivLo, LoEnd: qsel.Open, Hi: l.pivHi, HiEnd: qsel.Closed}
}

// localRank is a one-lane selection's result's local rank split after it
// has finished (before release): the number of local elements below it
// and of its local tie group — qsel.Rank(local, res), read off the
// narrowing history and one pass over the final window at most.
func (s *kthStep[K]) localRank() (below, equal int) {
	b, e := qsel.Rank(s.resIn, s.res)
	return s.nBelow + b, e + s.resEq
}

// winMin is the window's minimum as a reduction operand (no value on a
// PE whose window is empty).
func (l *kthLane[K]) winMin() tagged[K] {
	switch {
	case len(l.win) == 0:
		return tagged[K]{}
	case l.sorted:
		return tagged[K]{Has: true, Val: l.win[0]}
	}
	return tagged[K]{Has: true, Val: slices.Min(l.win)}
}

// setUp starts the recursion on the whole input, of global size n. It
// copies nothing: level 0's window is the shard itself.
func (l *kthLane[K]) setUp(n int64) {
	if l.k < 1 || l.k > n {
		panic(fmt.Sprintf("sel: rank %d out of range 1..%d", l.k, n))
	}
	l.win = l.local
	l.bounds, l.inWork = qsel.Interval[K]{}, false
	l.kRem, l.n = l.k, n
	l.nBelow = 0
	l.phase = lpLoop
}

// startSweep splits every lane's window around its level's pivots,
// samples each middle band at its lane's rate into one buffer, lane after
// lane, and launches the up-sweep. Its header is [la, lb] of every lane,
// then the sample sizes of all lanes but the last: the up-sweep sums them
// like the counts and keeps each lane's sample contiguous by them. One
// lane sends [la, lb] and its sample, and a band at rate 1 goes up
// uncopied.
func (s *kthStep[K]) startSweep(pe *comm.PE) {
	nl := len(s.lanes)
	s.hdr = commbuf.Resize(s.hdr[:0], 3*nl-1)
	s.sample = s.sample[:0]
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.plain {
			l.la, l.lb, l.band = 0, len(l.win), l.win
		} else {
			l.split()
		}
		s.hdr[2*i], s.hdr[2*i+1] = int64(l.la), int64(l.lb)
		m := len(s.sample)
		switch {
		case l.rate < 1:
			sk := xrand.NewSkipSampler(&l.rng, l.rate)
			for idx := sk.Next(); idx < int64(len(l.band)); idx = sk.Next() {
				s.sample = append(s.sample, l.band[idx])
			}
		case nl > 1:
			s.sample = append(s.sample, l.band...)
		}
		if i < nl-1 {
			s.hdr[2*nl+i] = int64(len(s.sample) - m)
		}
		if s.feed != nil {
			seg := len(s.sample) - m
			if l.rate >= 1 {
				seg = len(l.band)
			}
			l.meterUp(pe, seg)
		}
	}
	data := s.sample
	if nl == 1 && s.lanes[0].rate >= 1 {
		data = s.lanes[0].band
	}
	s.cur = coll.ReduceConcatStep(pe, 0, s.hdr, nl, data, s.onUp)
	s.phase = kphUp
}

// meterUp meters the lane's part of an up-sweep in which this PE
// contributes seg sample elements: a non-root PE's message and [la, lb],
// and the sample's words once per tree edge between this PE and the root
// (rank r lies popcount(r) edges below root 0).
func (l *kthLane[K]) meterUp(pe *comm.PE, seg int) {
	r := pe.Rank()
	if r != 0 {
		l.sends++
		l.words += 2
	}
	l.words += int64(bits.OnesCount(uint(r))) * int64(seg) * coll.WordsOf[K]()
}

// branch classifies the level just counted. It reads only state that is
// the same on every PE, so all of them — and the root, one sweep earlier
// — take the same branch.
func (l *kthLane[K]) branch(na, nb int64) int {
	switch {
	case na >= l.kRem:
		return brBelow
	case na+nb < l.kRem:
		return brAbove
	case l.plain || l.rate >= 1:
		return brHit // no pivots to tie on, or the root holds all of band b
	case l.pivLo == l.pivHi:
		return brTie
	case nb == l.n:
		return brPeel
	}
	return brHit
}

// judge is the up-sweep's callback: on the root (sums is nil elsewhere)
// it turns every lane's band sizes and its part of the concatenated band
// sample, a borrowed buffer it may reorder, into the lane's verdict, and
// appends an empty verdict for every lane the feed can admit now: the
// down-sweep carries the vector.
func (s *kthStep[K]) judge(sums []int64, all []K) {
	if sums == nil {
		return
	}
	nl := len(s.lanes)
	s.verdicts = s.verdicts[:0]
	off := 0
	for i := range s.lanes {
		m := len(all) - off
		if i < nl-1 {
			m = int(sums[2*nl+i])
		}
		s.verdicts = append(s.verdicts, s.lanes[i].judge(s.target, sums[2*i], sums[2*i+1], all[off:off+m]))
		off += m
	}
	if s.feed != nil {
		for n := s.feed.Ready(); n > 0; n-- {
			s.verdicts = append(s.verdicts, verdict[K]{})
		}
	}
}

// judge is the root's reading of the lane's level: its global band sizes
// na and nb and its band sample all.
func (l *kthLane[K]) judge(target float64, na, nb int64, all []K) verdict[K] {
	v := verdict[K]{na: na, nb: nb}
	if l.branch(v.na, v.nb) != brHit {
		return v
	}
	// The sample is one of the next window: band b, rank kRem, size n.
	kRem, n, m := l.kRem-v.na, v.nb, int64(len(all))
	switch {
	case l.rate >= 1:
		if m != n {
			panic(fmt.Sprintf("sel: residual of %d elements gathered as %d", n, m))
		}
		v.lo = qsel.Select(all, int(kRem-1))
	case m > 0:
		r := kRem * m / n
		delta := math.Pow(float64(m), 0.5+0.1)
		if l.sorted { // see the file comment for the two rules
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
		v.rate = min(1, target*float64(m)/(float64(n)*float64(c)))
	}
	return v
}

func addInt64(a, b int64) int64 { return a + b }

// finish ends lane l with the result v, whose local tie group and the
// local elements below it that nBelow does not count lie in in, or are eq
// elements of the group. It writes the lane's stream back to the
// caller's and hands v to the feed, or, without one, keeps it (and the
// rank split) for the end of the selection.
func (s *kthStep[K]) finish(pe *comm.PE, l *kthLane[K], v K, in []K, eq int) {
	l.phase = lpDone
	if l.ext != nil {
		*l.ext = l.rng
	}
	if s.feed != nil {
		s.feed.Done(pe, l.id, v, l.words, l.sends)
	} else {
		s.res, s.resIn, s.resEq, s.nBelow = v, in, eq, l.nBelow
	}
}

// done ends the selection: the *Step forms release themselves and call
// out; the blocking drivers harvest res (and localRank) and release
// explicitly.
func (s *kthStep[K]) done(pe *comm.PE) *comm.RecvHandle {
	s.phase = kphDone
	if s.self {
		out, v := s.out, s.res
		s.release(pe)
		if out != nil {
			out(v)
		}
	}
	return nil
}

// private runs the lanes' private collectives, lane by lane from s.li:
// it starts the next one (s.cur) and reports true, or reports false when
// every lane is done or ready for the up-sweep.
func (s *kthStep[K]) private(pe *comm.PE) bool {
lanes:
	for ; s.li < len(s.lanes); s.li++ {
		l := &s.lanes[s.li]
		for {
			switch l.phase {
			case lpSum:
				s.cur = coll.AllReduceScalarStep(pe, int64(len(l.local)), addInt64, s.onI64)
				l.phase = lpSetUp
				return true
			case lpSetUp:
				if l.n < 0 { // the size sum's
					l.n = s.i64
				}
				l.setUp(l.n)
			case lpLoop:
				if l.kRem == 1 {
					// Base case of Algorithm 1: a single min-reduction.
					s.cur = coll.AllReduceScalarStep(pe, l.winMin(), s.opMin, s.onTag)
					l.phase = lpMinWait
					return true
				}
				l.plain = true
				l.rate = min(1, s.target/float64(l.n))
				l.phase = lpSweep
			case lpMinWait:
				s.finish(pe, l, s.tg.Val, l.win, 0)
			case lpPeel:
				s.cur = coll.AllReduceScalarStep(pe, int64(l.nEqLocal), addInt64, s.onI64)
				l.phase = lpPeelWait
				return true
			case lpPeelWait:
				nEq := s.i64
				if l.kRem-l.v.na <= nEq {
					s.finish(pe, l, l.pivLo, nil, l.nEqLocal)
					continue
				}
				l.nBelow += l.nEqLocal
				l.take(l.band, l.peeled())
				l.kRem -= l.v.na + nEq
				l.n = l.v.nb - nEq
				l.phase = lpLoop
			default: // lpSweep, lpDone
				continue lanes
			}
		}
	}
	return false
}

// apply takes lane l through the branch its verdict v names.
func (s *kthStep[K]) apply(pe *comm.PE, l *kthLane[K], v verdict[K]) {
	l.v = v
	switch l.branch(v.na, v.nb) {
	case brBelow:
		l.narrow(qsel.Interval[K]{Hi: l.pivLo, HiEnd: qsel.Open}, 0, l.la)
		l.n = v.na
		l.phase = lpLoop
	case brAbove:
		l.nBelow += l.la + l.lb
		l.narrow(qsel.Interval[K]{Lo: l.pivHi, LoEnd: qsel.Open}, l.la+l.lb, len(l.win))
		l.kRem -= v.na + v.nb
		l.n -= v.na + v.nb
		l.phase = lpLoop
	case brTie:
		// The k-th element falls inside one big tie group: band b.
		l.nBelow += l.la
		s.finish(pe, l, l.pivLo, nil, l.lb)
	case brPeel:
		// No shrinkage: every remaining element is in lo..hi. Count the
		// lower pivot's tie group; the answer is in it or above it.
		l.peel()
		l.phase = lpPeel
	default:
		if !l.plain {
			l.take(l.band, qsel.Interval[K]{Lo: l.pivLo, LoEnd: qsel.Closed, Hi: l.pivHi, HiEnd: qsel.Closed})
		}
		l.nBelow += l.la
		l.kRem -= v.na
		l.n = v.nb
		switch {
		case l.rate >= 1:
			s.finish(pe, l, v.lo, l.win, 0) // the root held the whole band
		case v.rate == 0:
			l.phase = lpLoop // empty sample: draw again
		default:
			l.plain = false
			l.pivLo, l.pivHi, l.rate = v.lo, v.hi, v.rate
			l.phase = lpSweep
		}
	}
}

// compact drops the finished lanes, keeping the others in order. It
// swaps rather than overwrites, so every slot keeps a work buffer.
func (s *kthStep[K]) compact() {
	j := 0
	for i := range s.lanes {
		if s.lanes[i].phase == lpDone {
			s.lanes[i].drop()
			continue
		}
		if i != j {
			s.lanes[i], s.lanes[j] = s.lanes[j], s.lanes[i]
		}
		j++
	}
	s.lanes = s.lanes[:j]
}

// stepCur steps the collective in flight. Under a feed it meters what
// the collective sends on this PE: a private collective's to lane li, a
// down-sweep's to the lanes (kphVerdict); an up-sweep is metered lane by
// lane when it starts (meterUp).
func (s *kthStep[K]) stepCur(pe *comm.PE) *comm.RecvHandle {
	if s.feed == nil {
		return s.cur.Step(pe)
	}
	w0, n0 := pe.SentWords(), pe.Sends()
	h := s.cur.Step(pe)
	dw, dn := pe.SentWords()-w0, pe.Sends()-n0
	switch s.phase {
	case kphPrivate:
		l := &s.lanes[s.li]
		l.words += dw
		l.sends += dn
	case kphVerdict:
		s.downWords += dw
		s.downSends += dn
	}
	return h
}

func (s *kthStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.stepCur(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case kphAdmit:
			for ; s.admit > 0; s.admit-- {
				ln, h := s.feed.Next(pe)
				if h != nil {
					return h
				}
				s.addLane(ln.Sorted, ln.N, ln.K, ln.ID).rng.SeedPE(ln.Seed, pe.Rank())
			}
			s.li, s.phase = 0, kphPrivate
		case kphPrivate:
			if s.private(pe) {
				continue
			}
			s.compact()
			if len(s.lanes) == 0 {
				return s.done(pe)
			}
			s.startSweep(pe)
		case kphUp:
			s.cur = coll.BroadcastVecStep(pe, 0, s.verdicts, s.onVerdicts)
			s.phase = kphVerdict
		case kphVerdict:
			if s.feed != nil {
				// Every PE forwards the whole vector to each of its
				// children: a lane alone would send its verdict in as
				// many messages.
				w := s.downWords / int64(len(s.verdicts))
				for i := range s.lanes {
					s.lanes[i].words += w
					s.lanes[i].sends += s.downSends
				}
				s.downWords, s.downSends = 0, 0
			}
			for i := range s.lanes {
				s.apply(pe, &s.lanes[i], s.verdicts[i])
			}
			s.admit = len(s.verdicts) - len(s.lanes)
			s.compact()
			s.phase = kphAdmit
		default:
			return nil
		}
	}
}
