package sel

import (
	"cmp"
	"fmt"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/xrand"
)

// The state machines of the multisequence selection algorithms over the
// Seq interface — the engines behind MSSelect, AMSSelect, the bulk
// priority queue's flexible batches and DTA's list selections. The same
// discipline as kthStep (async.go): pooled per-PE state, every
// communication round delegated to a sub-stepper held in the cur slot,
// result-delivery closures and generic operator func values cached on
// the pooled object so steady-state dispatch is allocation-free. The
// blocking MSSelect and AMSSelect drive these steppers through
// comm.RunSteps; AMSSelectNStep and AMSSelectLanesStep hand them to a
// caller's stepper.

// # Exact selection is Algorithm 1 on the Appendix A prefix
//
// The element of global rank k lies in the first min(k, len) elements of
// every local sequence (Appendix A), so those prefixes — together at most
// kp elements, each one ascending — are a locally sorted input of which
// it is the rank-k element. msSelectStep hands them to the sorted form of
// kthStep: one size all-reduce (p·⌈log₂ p⌉ messages), then per recursion
// level one binomial-tree up-sweep and one down-sweep, 2(p−1) messages:
// Theorem 1's O(α log kp) expected on n ≤ kp, where Algorithm 9's
// random-pivot loop (Theorem 16, O(α log² kp)) paid four
// recursive-doubling collectives per iteration. A SliceSeq's prefix is a
// sub-slice; any other Seq's is copied into a pooled buffer, O(min(k,
// len)) At calls.

// msSelectStep is the exact multisequence selection: the sorted-form
// kthStep on this PE's prefix, then the local count of elements ≤ the
// answer on the full sequence. Its owner reads resV and resN once it has
// completed and then releases it.
type msSelectStep[K cmp.Ordered] struct {
	s    Seq[K]
	resV K
	resN int

	kth *kthStep[K] // the selection on the prefix; nil once harvested
	// rng is the per-PE sampling stream, reseeded per use from one draw
	// of the caller's shared stream; held by value so that costs nothing.
	rng    xrand.RNG
	prefix []K // a non-slice Seq's prefix; survives pooling
}

func newMSSelectStep[K cmp.Ordered](pe *comm.PE, s Seq[K], k int64, shared *xrand.RNG) *msSelectStep[K] {
	st := comm.GetPooled[msSelectStep[K]](pe)
	st.s = s
	m := int(min(int64(s.Len()), max(k, 0)))
	var prefix []K
	if sl, ok := s.(SliceSeq[K]); ok {
		prefix = sl[:m]
	} else {
		prefix = st.prefix[:0]
		for i := 0; i < m; i++ {
			prefix = append(prefix, s.At(i))
		}
		st.prefix = prefix
	}
	st.rng.SeedPE(int64(shared.Uint64()), pe.Rank())
	st.kth = newKthStep(pe, prefix, k, &st.rng, nil, false)
	st.kth.sorted = true
	return st
}

func (st *msSelectStep[K]) release(pe *comm.PE) {
	var zero K
	st.s, st.kth = nil, nil
	st.resV = zero
	clear(st.prefix[:cap(st.prefix)]) // keys may hold references
	comm.PutPooled(pe, st)
}

func (st *msSelectStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	if st.kth == nil {
		return nil
	}
	if h := st.kth.Step(pe); h != nil {
		return h
	}
	v := st.kth.res
	st.kth.release(pe)
	st.kth = nil
	st.resV, st.resN = v, st.s.CountLE(v)
	return nil
}

// # Flexible selection runs in lanes
//
// amsStep is Algorithm 2 over L independent lanes — L flexible
// selections, each with its own sequence, interval [k̲, k̄] and window,
// run in lockstep. A round is two vector all-reductions whatever L is:
// one over the active lanes' candidate thresholds (d per lane; a lane
// whose whole window fits in k̄ sends its window maximum instead) and one
// over the ranks of those candidates. A lane that lands drops out of
// the vectors, and the selection ends when the last one has. So L
// selections cost the startups of the slowest one, not of all of them
// (DTA's m lists, Theorem 6's α·log p per search step). A lane's slot
// carries its reduction direction (laneCand), so min- and max-sampled
// lanes share one vector. With the global lengths known the opening
// size sum is skipped, as KthNStep skips it; otherwise it is one vector
// sum over the lanes. AMSSelect is the one-lane case with that sum.
//
// Vectors stay on coll's recursive-doubling path while they are shorter
// than 4r words (r the largest power of two ≤ p): laneCand[uint64] is 2
// words, so up to 2r candidate slots per round; longer vectors take the
// reduce-scatter path — the same result in 2⌈log₂ r⌉ rounds.

// AMSLane is one lane of AMSSelectLanesStep: the flexible selection of
// the KMin ≤ k ≤ KMax globally smallest elements of Seq, whose global
// length (the sum of Seq.Len() over all PEs, not checked) is N. Res
// receives the lane's result.
type AMSLane[K cmp.Ordered] struct {
	Seq        Seq[K]
	KMin, KMax int64
	N          int64
	Res        AMSResult[K]
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

// amsStep phases.
const (
	aphInit         = iota // start the lane-size sum (unknown lengths only)
	aphSized               // set up every lane's window
	aphRound               // dispatch one round over the active lanes
	aphVsWait              // harvest candidate thresholds, start the rank sums
	aphKsWait              // harvest ranks; success check or narrow, per lane
	aphFallback            // start the next unfinished lane's exact fallback
	aphFallbackWait        // exact MSSelect fallback completed
	aphDone
)

const amsMaxRounds = 60

type amsStep[K cmp.Ordered] struct {
	lanes []AMSLane[K] // the caller's, or one
	one   [1]AMSLane[K]
	win   []amsWindow // survives pooling
	rng   *xrand.RNG
	d     int
	sumN  bool
	out   func(AMSResult[K]) // the one-lane entries
	self  bool
	round int
	fb    int // the lane in the exact fallback

	cur comm.Stepper
	ms  *msSelectStep[K]

	// A round's buffers, surviving pooling: the local candidates, their
	// global reductions vs, the local ranks js and the global ranks ks
	// (vs and ks are the all-reductions' destinations; the size sum
	// reuses js and ks).
	cands []laneCand[K]
	vs    []laneCand[K]
	js    []int64
	ks    []int64

	// Cached closures and operator func value (see kthStep).
	onVs   func([]laneCand[K])
	onKs   func([]int64)
	opCand func(a, b laneCand[K]) laneCand[K]

	phase int
}

func checkAMSRange(kmin, kmax int64) {
	if kmin < 1 || kmax < kmin {
		panic(fmt.Sprintf("sel: AMSSelect invalid range [%d, %d]", kmin, kmax))
	}
}

func newAMSStep[K cmp.Ordered](pe *comm.PE, lanes []AMSLane[K], sumN bool, rng *xrand.RNG, d int, self bool) *amsStep[K] {
	for _, l := range lanes {
		checkAMSRange(l.KMin, l.KMax)
	}
	st := comm.GetPooled[amsStep[K]](pe)
	st.lanes, st.sumN, st.rng, st.d, st.self = lanes, sumN, rng, d, self
	st.phase = aphInit
	st.cur = nil
	if st.onVs == nil {
		st.onVs = func(v []laneCand[K]) { st.vs = v }
		st.onKs = func(v []int64) { st.ks = v }
		st.opCand = reduceLaneCand[K]
	}
	return st
}

// newAMSOneLane is the one-lane engine on s; n < 0 sums the length first.
func newAMSOneLane[K cmp.Ordered](pe *comm.PE, s Seq[K], n, kmin, kmax int64, rng *xrand.RNG, d int, out func(AMSResult[K]), self bool) *amsStep[K] {
	checkAMSRange(kmin, kmax)
	st := newAMSStep[K](pe, nil, n < 0, rng, d, self)
	st.one[0] = AMSLane[K]{Seq: s, KMin: kmin, KMax: kmax, N: n}
	st.lanes = st.one[:]
	st.out = out
	return st
}

// AMSSelectNStep is the continuation form of AMSSelect for a caller that
// already knows the global element count n (the sum of s.Len() over all
// PEs, not checked): out (optional) receives the flexible selection
// result on every PE. The size all-reduce is skipped; everything else —
// semantics, panics, per-PE RNG consumption and the rest of the metered
// schedule — is AMSSelect's.
func AMSSelectNStep[K cmp.Ordered](pe *comm.PE, s Seq[K], n, kmin, kmax int64, rng *xrand.RNG, out func(AMSResult[K])) comm.Stepper {
	return newAMSOneLane(pe, s, max(n, 0), kmin, kmax, rng, 1, out, true)
}

// AMSSelectLanesStep runs one flexible selection per lane in lockstep:
// every round is one candidate and one rank all-reduction over all lanes
// still searching (see the lanes comment above), and no size sum. When
// the stepper completes, each lane's Res holds what AMSSelectNStep would
// deliver for it, up to RNG draws: the lanes draw from rng in lane order.
// lanes must be the same length on every PE and stay untouched until the
// stepper completes; one lane has the metered schedule of AMSSelectNStep.
func AMSSelectLanesStep[K cmp.Ordered](pe *comm.PE, lanes []AMSLane[K], rng *xrand.RNG) comm.Stepper {
	return newAMSStep(pe, lanes, false, rng, 1, true)
}

func (st *amsStep[K]) release(pe *comm.PE) {
	st.lanes, st.rng, st.out, st.cur = nil, nil, nil, nil
	st.ms = nil
	st.one[0] = AMSLane[K]{}
	comm.PutPooled(pe, st)
}

func (st *amsStep[K]) finish(pe *comm.PE) *comm.RecvHandle {
	st.phase = aphDone
	if st.self {
		out := st.out
		var r AMSResult[K]
		if out != nil {
			r = st.lanes[0].Res
		}
		st.release(pe)
		if out != nil {
			out(r)
		}
	}
	return nil
}

// land ends lane i with result r.
func (st *amsStep[K]) land(i int, r AMSResult[K]) {
	st.lanes[i].Res = r
	st.win[i].done = true
}

func (st *amsStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if st.cur != nil {
			if h := st.cur.Step(pe); h != nil {
				return h
			}
			st.cur = nil
		}
		switch st.phase {
		case aphInit:
			st.phase = aphSized
			if st.sumN {
				st.js = st.js[:0]
				for _, l := range st.lanes {
					st.js = append(st.js, int64(l.Seq.Len()))
				}
				st.cur = coll.AllReduceIntoStep(pe, st.ks, st.js, addInt64, st.onKs)
			}
		case aphSized:
			st.win = commbuf.Resize(st.win[:0], len(st.lanes))
			for i := range st.lanes {
				l := &st.lanes[i]
				if st.sumN {
					l.N = st.ks[i]
				}
				if l.KMin > l.N {
					panic(fmt.Sprintf("sel: AMSSelect k̲=%d exceeds input size %d", l.KMin, l.N))
				}
				st.win[i] = amsWindow{hi: l.Seq.Len(), kminR: l.KMin, kmaxR: l.KMax, nR: l.N}
			}
			st.round = 1
			st.phase = aphRound
		case aphRound:
			if st.round > amsMaxRounds {
				// Flexible search failed to converge (degenerate interval);
				// finish the remaining lanes exactly.
				st.fb = 0
				st.phase = aphFallback
				continue
			}
			// Draw d candidate thresholds per lane with the dual estimator:
			// a lane whose k̄ lies in the lower half of its window samples
			// the window from the bottom at amsRho's rate and proposes the
			// least sample (useMin), any other lane the mirror image from
			// the top. Absent candidates must read as zero.
			st.cands = st.cands[:0]
			for i := range st.lanes {
				w := &st.win[i]
				if w.done {
					continue
				}
				s := st.lanes[i].Seq
				w.slot = len(st.cands)
				w.all = w.kmaxR >= w.nR
				if w.all {
					// Everything remaining fits: threshold is the global max.
					c := laneCand[K]{Max: true}
					if w.hi-w.lo > 0 {
						c.Has, c.Val = true, s.At(w.hi-1)
					}
					st.cands = append(st.cands, c)
					continue
				}
				w.useMin = w.kmaxR < w.nR-w.kmaxR
				for t := 0; t < st.d; t++ {
					c := laneCand[K]{Max: !w.useMin}
					if w.useMin {
						x := st.rng.Geometric(amsRho(w.kminR, w.kmaxR))
						if x <= int64(w.hi-w.lo) {
							c.Has, c.Val = true, s.At(w.lo+int(x)-1)
						}
					} else {
						x := st.rng.Geometric(amsRho(w.nR-w.kmaxR+1, w.nR-w.kminR+1))
						if x <= int64(w.hi-w.lo) {
							c.Has, c.Val = true, s.At(w.hi-int(x))
						}
					}
					st.cands = append(st.cands, c)
				}
			}
			if len(st.cands) == 0 {
				return st.finish(pe)
			}
			st.cur = coll.AllReduceIntoStep(pe, st.vs, st.cands, st.opCand, st.onVs)
			st.phase = aphVsWait
		case aphVsWait:
			// Window-maximum lanes are done; rank all other candidates with
			// one vector-valued sum.
			st.js = st.js[:0]
			for i := range st.lanes {
				w := &st.win[i]
				if w.done {
					continue
				}
				s := st.lanes[i].Seq
				if w.all {
					st.land(i, AMSResult[K]{
						Threshold: st.vs[w.slot].Val,
						Count:     w.accepted + w.nR,
						LocalLen:  w.hi,
						Rounds:    st.round,
					})
					continue
				}
				for _, v := range st.vs[w.slot : w.slot+st.d] {
					if v.Has {
						st.js = append(st.js, int64(clampInt(s.CountLE(v.Val), w.lo, w.hi)-w.lo))
					} else {
						// No PE produced a candidate (all deviates overshot):
						// treat as "everything ≤ v", forcing the window logic
						// to keep the full window and retry.
						st.js = append(st.js, int64(w.hi-w.lo))
					}
				}
			}
			if len(st.js) == 0 {
				return st.finish(pe)
			}
			st.cur = coll.AllReduceIntoStep(pe, st.ks, st.js, addInt64, st.onKs)
			st.phase = aphKsWait
		case aphKsWait:
			// Per lane: success check, then narrow to (largest under,
			// smallest over).
			c := 0
			active := false
			for i := range st.lanes {
				w := &st.win[i]
				if w.done {
					continue
				}
				st.narrow(i, st.js[c:c+st.d], st.ks[c:c+st.d])
				c += st.d
				active = active || !w.done
			}
			if !active {
				return st.finish(pe)
			}
			st.round++
			st.phase = aphRound
		case aphFallback:
			for st.fb < len(st.lanes) && st.win[st.fb].done {
				st.fb++
			}
			if st.fb == len(st.lanes) {
				return st.finish(pe)
			}
			// The shared stream must be identical across PEs: derive it
			// from quantities all PEs agree on.
			l, w := &st.lanes[st.fb], &st.win[st.fb]
			shared := xrand.New(int64(0x5eed + l.KMin + 31*l.KMax + 977*l.N))
			sub := subSeq[K]{s: l.Seq, lo: w.lo, hi: w.hi}
			st.ms = newMSSelectStep[K](pe, sub, w.kminR, shared)
			st.cur = st.ms
			st.phase = aphFallbackWait
		case aphFallbackWait:
			v := st.ms.resV
			st.ms.release(pe)
			st.ms = nil
			st.land(st.fb, AMSResult[K]{
				Threshold: v,
				Count:     st.win[st.fb].accepted + st.win[st.fb].kminR,
				LocalLen:  st.lanes[st.fb].Seq.CountLE(v),
				Rounds:    amsMaxRounds,
			})
			st.phase = aphFallback
		default:
			return nil
		}
	}
}

// narrow lands lane i if one of its candidates' global ranks ks (local
// ranks js) falls in the interval left, and otherwise shrinks its window
// to the tightest (largest under, smallest over) bracket.
func (st *amsStep[K]) narrow(i int, js, ks []int64) {
	w := &st.win[i]
	vs := st.vs[w.slot : w.slot+st.d]
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
			st.land(i, AMSResult[K]{
				Threshold: v.Val,
				Count:     w.accepted + k,
				LocalLen:  w.lo + int(js[t]),
				Rounds:    st.round,
			})
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
