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

// Continuation form of Algorithm 1's collective skeleton. KthStep
// expresses unsorted selection — the size sum, the per-level pivot
// gather + broadcast, the partition-count all-reduce, and the residual
// gather-and-solve base case — as a comm.Stepper, so the full selection
// benchmark runs under Machine.RunAsync with O(w) mid-run goroutines.
// The blocking Kth drives the same stepper through comm.RunSteps: one
// implementation, both execution modes, bit-identical results and meter
// (pinned by the differential fuzz and the scaling suite's A/B twins).
//
// The recursion of the blocking formulation is all tail calls, so the
// stepper runs it as a loop over a candidate window of the per-PE work
// buffer; every communication round delegates to the pooled collective
// steppers of internal/coll, held in the cur slot and driven to
// completion before the state machine advances. The state struct is
// pooled per PE (comm.GetPooled); the result-delivery closures handed to
// the sub-steppers are built once per pooled object and reused, so
// steady-state dispatch allocates only what the blocking form always
// has (the gather materializations and broadcast boxing).
//
// The state machine has two entry points that differ only in how the
// candidate window is held. KthStep (unsorted input) sums the shard sizes,
// copies the shard into per-PE scratch and narrows the window by
// partitioning it in place, Θ(window) per level. KthSortedStep (the
// caller states that its shard is ascending and what the global size is)
// skips the size sum and uses the shard itself as the window: an
// ascending slice already is the [<lo | lo..hi | >hi] layout the
// partition produces, so the band counts are binary searches, the
// extremes are the window's ends, and the shard is never written —
// O(log window + sample) per level. Sampling, pivot choice, every
// collective and every narrowing of win are the same code.

// kthStep phases.
const (
	kphInit        = iota // start the global size sum
	kphInitSum            // n known: validate k, set up the window
	kphLoop               // dispatch one recursion level
	kphMinWait            // k == 1 base case: harvest the min-reduction
	kphSolveGather        // gatherSolve: residual gathered, start the broadcast
	kphSolveBcast         // gatherSolve: harvest the k-th element
	kphPivGather          // sample gathered (root picked pivots), start broadcast
	kphPivBcast           // harvest pivots; partition and start the count reduce
	kphFallbackMin        // empty sample: harvest global min, start max reduce
	kphFallbackMax        // empty sample: harvest global max, partition
	kphCountsWait         // harvest (na, nb) and branch the recursion
	kphPeelWait           // tie-peel: harvest the global tie count and branch
	kphDone
)

// gather modes of the shared Gatherv callback.
const (
	gmPivots = iota // pickPivots: concatenate the sample, extract two pivots
	gmSolve         // gatherSolve: concatenate the residual, select the k-th
)

type kthStep[K cmp.Ordered] struct {
	pe    *comm.PE
	local []K
	k     int64
	rng   *xrand.RNG
	out   func(K)
	self  bool // self-release + out on completion (the KthStep form)
	// sorted: local is ascending and is the window itself, read-only
	// (KthSortedStep); otherwise the window is a scratch copy of local.
	sorted bool
	res    K

	// The recursion state: win is the live candidate window of the
	// per-PE work buffer, kRem/n the remaining rank and global size.
	win   []K
	kRem  int64
	n     int64
	depth int

	// Current collective sub-stepper and its harvested results.
	cur        comm.Stepper
	gatherMode int
	i64        int64
	tg         tagged[K]
	pivots     []K // scratch-backed ("sel.pivots.out"), root work in onParts
	gotPiv     []K // broadcast result (shared, read immediately)
	kthVal     K   // gatherSolve root result
	pivLo      K
	pivHi      K
	na, nb     int64
	la, lb     int // local three-way partition boundaries of win
	nEqLocal   int // local size of the peeled tie group

	// Cached result-delivery closures and operator func values (one
	// allocation per pooled object, not per op — a func value built in a
	// generic context carries the type dictionary and would otherwise
	// heap-allocate at every use). The closures capture only s;
	// everything else is read through fields at call time.
	onI64   func(int64)
	onTag   func(tagged[K])
	onParts func([][]K)
	onPiv   func([]K)
	onSums  func([]int64)
	onK     func(K)
	opMin   func(a, b tagged[K]) tagged[K]
	opMax   func(a, b tagged[K]) tagged[K]

	phase int
}

func newKthStep[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG, out func(K), self bool) *kthStep[K] {
	s := comm.GetPooled[kthStep[K]](pe)
	s.pe = pe
	s.local, s.k, s.rng, s.out, s.self = local, k, rng, out, self
	s.sorted = false
	s.phase = kphInit
	s.cur = nil
	s.depth = 0
	if s.onI64 == nil {
		s.onI64 = func(v int64) { s.i64 = v }
		s.onTag = func(v tagged[K]) { s.tg = v }
		s.onParts = func(parts [][]K) { s.consumeGather(parts) }
		s.onPiv = func(v []K) { s.gotPiv = v }
		s.onSums = func(v []int64) { s.na, s.nb = v[0], v[1] }
		s.onK = func(v K) { s.kthVal = v }
		s.opMin = minTagged[K]
		s.opMax = maxTagged[K]
	}
	return s
}

// KthStep is the continuation form of Kth: out (optional) receives the
// element of global rank k on every PE. Semantics, panics, RNG
// consumption and the metered schedule match Kth exactly — Kth is this
// stepper driven with blocking waits.
func KthStep[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	return newKthStep(pe, local, k, rng, out, true)
}

// KthSortedStep is KthStep for a resident, locally sorted shard: sorted
// must be ascending and n must be the global element count (the sum of
// len(sorted) over all PEs) — preconditions the caller states, as
// MSSelect's callers do for theirs; neither is checked. In exchange the
// shard is never written or copied (it may be shared by any number of
// concurrent selections), the per-query size all-reduce is skipped, and
// local work per recursion level is O(log len(sorted) + sample) instead
// of a scan. The pivot sample reads the same window positions with the
// same RNG draws per level as KthStep and the per-level collectives are
// identical, but on the same multiset the two forms see differently
// ordered windows, so their pivot walks (and meters) differ; the answer
// is exact in both.
func KthSortedStep[K cmp.Ordered](pe *comm.PE, sorted []K, n, k int64, rng *xrand.RNG, out func(K)) comm.Stepper {
	s := newKthStep(pe, sorted, k, rng, out, true)
	s.sorted = true
	s.i64 = n
	s.phase = kphInitSum
	return s
}

// release returns the state to the PE pool, keeping the cached closures
// (and their one-time allocation) for the next use.
func (s *kthStep[K]) release(pe *comm.PE) {
	var zero K
	s.local, s.win, s.rng, s.out = nil, nil, nil, nil
	s.cur = nil
	s.pivots, s.gotPiv = nil, nil
	s.res, s.kthVal, s.pivLo, s.pivHi = zero, zero, zero, zero
	s.tg = tagged[K]{}
	comm.PutPooled(pe, s)
}

// consumeGather is the shared Gatherv callback: parts is the borrowed
// rank-indexed view (root only; nil elsewhere) and must be consumed
// before returning.
func (s *kthStep[K]) consumeGather(parts [][]K) {
	pe := s.pe
	switch s.gatherMode {
	case gmPivots:
		// Extract the two pivots at the root and ship back only those:
		// order statistics, not a sort (see the blocking pickPivots'
		// rationale, which this reproduces verbatim).
		pivots := comm.ScratchSlice[K](pe, "sel.pivots.out", 2)[:0]
		if parts != nil {
			var total int
			for _, part := range parts {
				total += len(part)
			}
			all := comm.ScratchSlice[K](pe, "sel.pivots.concat", total)[:0]
			for _, part := range parts {
				all = append(all, part...)
			}
			if m := int64(len(all)); m > 0 {
				r := s.kRem * m / s.n
				delta := int64(math.Ceil(math.Pow(float64(m), 0.5+0.1)))
				iLo := int(clamp(r-delta, 0, m-1))
				iHi := int(clamp(r+delta, 0, m-1))
				// Value-only order statistics: SelectInto leaves the
				// concatenated sample untouched, so the two ranks are
				// extracted independently (no reliance on Select's
				// partition side effect) through the bucket kernel.
				ws := comm.ScratchSlice[K](pe, "sel.pivots.ws", total)
				vLo := qsel.SelectInto(ws, all, iLo)
				vHi := qsel.SelectInto(ws, all, iHi)
				pivots = append(pivots, vLo, vHi)
			}
		}
		s.pivots = pivots
	default: // gmSolve
		if parts == nil {
			return
		}
		var total int
		for _, part := range parts {
			total += len(part)
		}
		all := comm.ScratchSlice[K](pe, "sel.gather.concat", total)[:0]
		for _, part := range parts {
			all = append(all, part...)
		}
		if s.kRem < 1 || s.kRem > int64(len(all)) {
			panic(fmt.Sprintf("sel: internal rank %d out of residual range %d", s.kRem, len(all)))
		}
		ws := comm.ScratchSlice[K](pe, "sel.gather.ws", total)
		s.kthVal = qsel.SelectInto(ws, all, int(s.kRem-1))
	}
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

// winMin and winMax are the window's extremes as reduction operands
// (no value on a PE whose window is empty).
func (s *kthStep[K]) winMin() tagged[K] {
	switch {
	case len(s.win) == 0:
		return tagged[K]{}
	case s.sorted:
		return tagged[K]{Has: true, Val: s.win[0]}
	}
	return tagged[K]{Has: true, Val: slices.Min(s.win)}
}

func (s *kthStep[K]) winMax() tagged[K] {
	switch {
	case len(s.win) == 0:
		return tagged[K]{}
	case s.sorted:
		return tagged[K]{Has: true, Val: s.win[len(s.win)-1]}
	}
	return tagged[K]{Has: true, Val: slices.Max(s.win)}
}

// startCounts splits the window around the pivots and launches the
// two-counter all-reduce (the "partition counting scan").
func (s *kthStep[K]) startCounts(pe *comm.PE) {
	s.la, s.lb = s.bands(s.win, s.pivLo, s.pivHi)
	counts := comm.ScratchSlice[int64](pe, "sel.kth.counts.in", 2)
	counts[0], counts[1] = int64(s.la), int64(s.lb)
	s.cur = coll.AllReduceIntoStep(pe, comm.ScratchSlice[int64](pe, "sel.kth.counts", 2),
		counts, addInt64, s.onSums)
	s.phase = kphCountsWait
}

func addInt64(a, b int64) int64 { return a + b }

// finish delivers the result: the KthStep form releases itself and calls
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
			s.n = s.i64
			if s.k < 1 || s.k > s.n {
				panic(fmt.Sprintf("sel: rank %d out of range 1..%d", s.k, s.n))
			}
			s.win = s.local
			if !s.sorted {
				work := comm.ScratchSlice[K](pe, "sel.kth.work", len(s.local))
				copy(work, s.local)
				s.win = work
			}
			s.kRem = s.k
			s.phase = kphLoop
		case kphLoop:
			if s.kRem == 1 {
				// Base case of Algorithm 1: a single min-reduction.
				s.cur = coll.AllReduceScalarStep(pe, s.winMin(), s.opMin, s.onTag)
				s.phase = kphMinWait
				continue
			}
			if s.n <= baseCaseLimit(pe.P()) || s.depth > 120 {
				s.gatherMode = gmSolve
				s.cur = coll.GathervStep(pe, 0, s.win, s.onParts)
				s.phase = kphSolveGather
				continue
			}
			// pickPivots: draw the Bernoulli sample of expected size Θ(√p)
			// into per-PE scratch (growth stored back, paid once per size)
			// and gather it on the root.
			pf := float64(pe.P())
			target := 4 * (math.Sqrt(pf) + 8)
			rho := target / float64(s.n)
			if rho > 1 {
				rho = 1
			}
			scratch := comm.ScratchSlice[K](pe, "sel.pivots.sample", int(4*target)/pe.P()+16)
			sample := scratch[:0]
			sk := xrand.NewSkipSampler(s.rng, rho)
			for idx := sk.Next(); idx < int64(len(s.win)); idx = sk.Next() {
				sample = append(sample, s.win[idx])
			}
			if cap(sample) > cap(scratch) {
				grown := sample
				pe.SetScratch("sel.pivots.sample", &grown)
			}
			s.gatherMode = gmPivots
			s.cur = coll.GathervStep(pe, 0, sample, s.onParts)
			s.phase = kphPivGather
		case kphMinWait:
			return s.finish(pe, s.tg.Val)
		case kphSolveGather:
			s.cur = coll.BroadcastScalarStep(pe, 0, s.kthVal, s.onK)
			s.phase = kphSolveBcast
		case kphSolveBcast:
			return s.finish(pe, s.kthVal)
		case kphPivGather:
			s.cur = coll.BroadcastStep(pe, 0, s.pivots, s.onPiv)
			s.phase = kphPivBcast
		case kphPivBcast:
			if len(s.gotPiv) == 0 {
				// Extremely unlucky sample; fall back to the global extremes
				// so the next round keeps everything.
				s.cur = coll.AllReduceScalarStep(pe, s.winMin(), s.opMin, s.onTag)
				s.phase = kphFallbackMin
				continue
			}
			s.pivLo, s.pivHi = s.gotPiv[0], s.gotPiv[1]
			s.gotPiv = nil
			s.startCounts(pe)
		case kphFallbackMin:
			s.pivLo = s.tg.Val
			s.cur = coll.AllReduceScalarStep(pe, s.winMax(), s.opMax, s.onTag)
			s.phase = kphFallbackMax
		case kphFallbackMax:
			s.pivHi = s.tg.Val
			s.startCounts(pe)
		case kphCountsWait:
			na, nb := s.na, s.nb
			switch {
			case na >= s.kRem:
				s.win = s.win[:s.la]
				s.n = na
				s.depth++
				s.phase = kphLoop
			case na+nb < s.kRem:
				s.win = s.win[s.la+s.lb:]
				s.kRem -= na + nb
				s.n -= na + nb
				s.depth++
				s.phase = kphLoop
			case s.pivLo == s.pivHi:
				// Equal pivots: the k-th element falls inside one big tie
				// group — the answer is the pivot itself.
				return s.finish(pe, s.pivLo)
			case nb == s.n:
				// No shrinkage: peel the boundary tie group of the lower
				// pivot arithmetically (see the blocking form's rationale).
				b := s.win[s.la : s.la+s.lb]
				_, nEqLocal := s.bands(b, s.pivLo, s.pivLo)
				s.nEqLocal = nEqLocal
				s.cur = coll.AllReduceScalarStep(pe, int64(nEqLocal), addInt64, s.onI64)
				s.phase = kphPeelWait
			default:
				s.win = s.win[s.la : s.la+s.lb]
				s.kRem -= na
				s.n = nb
				s.depth++
				s.phase = kphLoop
			}
		case kphPeelWait:
			nEq := s.i64
			na, nb := s.na, s.nb
			if s.kRem-na <= nEq {
				return s.finish(pe, s.pivLo)
			}
			s.win = s.win[s.la+s.nEqLocal : s.la+s.lb]
			s.kRem -= na + nEq
			s.n = nb - nEq
			s.depth++
			s.phase = kphLoop
		default:
			return nil
		}
	}
}
