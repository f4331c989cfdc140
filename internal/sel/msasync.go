package sel

import (
	"cmp"
	"fmt"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// Continuation forms of the multisequence selection algorithms over the
// Seq interface — the engines behind MSSelect, AMSSelect and the bulk
// priority queue's flexible batches. The same discipline as kthStep
// (async.go): pooled per-PE state, every communication round delegated
// to a sub-stepper held in the cur slot, result-delivery closures and
// generic operator func values cached on the pooled object so
// steady-state dispatch is allocation-free. The blocking MSSelect and
// AMSSelect drive these steppers through comm.RunSteps — one
// implementation, both execution modes, bit-identical results, RNG
// consumption and metered schedule (pinned by the bpq differential fuzz
// op and the stepper A/B tests).
//
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
// answer on the full sequence.
type msSelectStep[K cmp.Ordered] struct {
	s    Seq[K]
	out  func(K, int)
	self bool
	resV K
	resN int

	kth *kthStep[K] // the selection on the prefix; nil once harvested
	// rng is the per-PE sampling stream, reseeded per use from one draw
	// of the caller's shared stream; held by value so that costs nothing.
	rng    xrand.RNG
	prefix []K // a non-slice Seq's prefix; survives pooling
}

func newMSSelectStep[K cmp.Ordered](pe *comm.PE, s Seq[K], k int64, shared *xrand.RNG, out func(K, int), self bool) *msSelectStep[K] {
	st := comm.GetPooled[msSelectStep[K]](pe)
	st.s, st.out, st.self = s, out, self
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

// MSSelectStep is the continuation form of MSSelect: out (optional)
// receives, on every PE, the element of global rank k and this PE's
// local count of elements ≤ it. Semantics, panics, shared-stream
// consumption and the metered schedule match MSSelect exactly —
// MSSelect is this stepper driven with blocking waits.
func MSSelectStep[K cmp.Ordered](pe *comm.PE, s Seq[K], k int64, shared *xrand.RNG, out func(v K, localLE int)) comm.Stepper {
	return newMSSelectStep(pe, s, k, shared, out, true)
}

func (st *msSelectStep[K]) release(pe *comm.PE) {
	var zero K
	st.s, st.out, st.kth = nil, nil, nil
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
	if st.self {
		out, n := st.out, st.resN
		st.release(pe)
		if out != nil {
			out(v, n)
		}
	}
	return nil
}

// amsSelectStep phases.
const (
	aphInit         = iota // start the global size sum
	aphInitSum             // harvest n, set up the round state
	aphRound               // dispatch one estimation round (or the base/fallback)
	aphAllWait             // k̄ ≥ remaining: harvest the global max
	aphVsWait              // harvest candidate thresholds, start the rank sums
	aphKsWait              // harvest ranks; success check or narrow
	aphFallbackWait        // exact MSSelect fallback completed
	aphDone
)

const amsMaxRounds = 60

type amsSelectStep[K cmp.Ordered] struct {
	pe   *comm.PE
	s    Seq[K]
	rng  *xrand.RNG
	out  func(AMSResult[K])
	self bool
	d    int
	kmin int64
	kmax int64
	n    int64 // initial global size (the fallback seed needs it)
	res  AMSResult[K]

	lo, hi       int
	accepted     int64
	kminR, kmaxR int64
	nR           int64
	round        int
	useMin       bool

	// Current collective sub-stepper and its harvested results.
	cur comm.Stepper
	i64 int64
	tg  tagged[K]
	ms  *msSelectStep[K]

	// A round's buffers, surviving pooling: the local candidates, their
	// global minima or maxima vs, the local ranks js and the global
	// ranks ks (vs and ks are the all-reductions' destinations).
	cands []tagged[K]
	vs    []tagged[K]
	js    []int64
	ks    []int64

	// Cached closures and operator func values (see kthStep).
	onI64 func(int64)
	onTag func(tagged[K])
	onVs  func([]tagged[K])
	onKs  func([]int64)
	opMin func(a, b tagged[K]) tagged[K]
	opMax func(a, b tagged[K]) tagged[K]

	phase int
}

func newAMSSelectStep[K cmp.Ordered](pe *comm.PE, s Seq[K], kmin, kmax int64, rng *xrand.RNG, d int, out func(AMSResult[K]), self bool) *amsSelectStep[K] {
	if kmin < 1 || kmax < kmin {
		panic(fmt.Sprintf("sel: AMSSelect invalid range [%d, %d]", kmin, kmax))
	}
	st := comm.GetPooled[amsSelectStep[K]](pe)
	st.pe = pe
	st.s, st.kmin, st.kmax, st.rng, st.d, st.out, st.self = s, kmin, kmax, rng, d, out, self
	st.phase = aphInit
	st.cur = nil
	if st.onI64 == nil {
		st.onI64 = func(v int64) { st.i64 = v }
		st.onTag = func(v tagged[K]) { st.tg = v }
		st.onVs = func(v []tagged[K]) { st.vs = v }
		st.onKs = func(v []int64) { st.ks = v }
		st.opMin = minTagged[K]
		st.opMax = maxTagged[K]
	}
	return st
}

// AMSSelectStep is the continuation form of AMSSelect: out (optional)
// receives the flexible selection result on every PE. Semantics, panics,
// per-PE RNG consumption and the metered schedule match AMSSelect
// exactly — AMSSelect is this stepper driven with blocking waits.
func AMSSelectStep[K cmp.Ordered](pe *comm.PE, s Seq[K], kmin, kmax int64, rng *xrand.RNG, out func(AMSResult[K])) comm.Stepper {
	return newAMSSelectStep(pe, s, kmin, kmax, rng, 1, out, true)
}

func (st *amsSelectStep[K]) release(pe *comm.PE) {
	st.s, st.rng, st.out, st.cur = nil, nil, nil, nil
	st.ms = nil
	st.res = AMSResult[K]{}
	st.tg = tagged[K]{}
	comm.PutPooled(pe, st)
}

func (st *amsSelectStep[K]) finish(pe *comm.PE, r AMSResult[K]) *comm.RecvHandle {
	st.res = r
	st.phase = aphDone
	if st.self {
		out := st.out
		st.release(pe)
		if out != nil {
			out(r)
		}
	}
	return nil
}

func (st *amsSelectStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if st.cur != nil {
			if h := st.cur.Step(pe); h != nil {
				return h
			}
			st.cur = nil
		}
		switch st.phase {
		case aphInit:
			st.cur = coll.AllReduceScalarStep(pe, int64(st.s.Len()), addInt64, st.onI64)
			st.phase = aphInitSum
		case aphInitSum:
			n := st.i64
			if st.kmin > n {
				panic(fmt.Sprintf("sel: AMSSelect k̲=%d exceeds input size %d", st.kmin, n))
			}
			st.n = n
			st.lo, st.hi = 0, st.s.Len()
			st.accepted = 0
			st.kminR, st.kmaxR = st.kmin, st.kmax
			st.nR = n
			st.round = 1
			st.phase = aphRound
		case aphRound:
			if st.round > amsMaxRounds {
				// Flexible search failed to converge (degenerate interval);
				// finish exactly. The shared stream must be identical across
				// PEs: derive it from quantities all PEs agree on.
				shared := xrand.New(int64(0x5eed + st.kmin + 31*st.kmax + 977*st.n))
				sub := subSeq[K]{s: st.s, lo: st.lo, hi: st.hi}
				st.ms = newMSSelectStep[K](pe, sub, st.kminR, shared, nil, false)
				st.cur = st.ms
				st.phase = aphFallbackWait
				continue
			}
			if st.kmaxR >= st.nR {
				// Everything remaining fits: threshold is the global max.
				var cand tagged[K]
				if st.hi-st.lo > 0 {
					cand = tagged[K]{Has: true, Val: st.s.At(st.hi - 1)}
				}
				st.cur = coll.AllReduceScalarStep(pe, cand, st.opMax, st.onTag)
				st.phase = aphAllWait
				continue
			}
			// Draw d candidate thresholds with the dual estimator (see the
			// blocking form's rationale in sel.go).
			st.useMin = st.kmaxR < st.nR-st.kmaxR
			// Absent candidates must read as zero.
			st.cands = append(st.cands[:0], make([]tagged[K], st.d)...)
			cands := st.cands
			for t := 0; t < st.d; t++ {
				if st.useMin {
					rho := amsRho(st.kminR, st.kmaxR)
					x := st.rng.Geometric(rho)
					if x <= int64(st.hi-st.lo) {
						cands[t] = tagged[K]{Has: true, Val: st.s.At(st.lo + int(x) - 1)}
					}
				} else {
					rho := amsRho(st.nR-st.kmaxR+1, st.nR-st.kminR+1)
					x := st.rng.Geometric(rho)
					if x <= int64(st.hi-st.lo) {
						cands[t] = tagged[K]{Has: true, Val: st.s.At(st.hi - int(x))}
					}
				}
			}
			if st.useMin {
				st.cur = coll.AllReduceIntoStep(pe, st.vs, cands, st.opMin, st.onVs)
			} else {
				st.cur = coll.AllReduceIntoStep(pe, st.vs, cands, st.opMax, st.onVs)
			}
			st.phase = aphVsWait
		case aphAllWait:
			return st.finish(pe, AMSResult[K]{
				Threshold: st.tg.Val,
				Count:     st.accepted + st.nR,
				LocalLen:  st.hi,
				Rounds:    st.round,
			})
		case aphVsWait:
			// Rank all candidates with one vector-valued sum.
			st.js = append(st.js[:0], make([]int64, st.d)...)
			js := st.js
			for t := 0; t < st.d; t++ {
				if st.vs[t].Has {
					js[t] = int64(clampInt(st.s.CountLE(st.vs[t].Val), st.lo, st.hi) - st.lo)
				} else {
					// No PE produced a candidate (all deviates overshot):
					// treat as "everything ≤ v", forcing the window logic to
					// keep the full window and retry.
					js[t] = int64(st.hi - st.lo)
				}
			}
			st.cur = coll.AllReduceIntoStep(pe, st.ks, js, addInt64, st.onKs)
			st.phase = aphKsWait
		case aphKsWait:
			// Success check, then narrow to (largest under, smallest over).
			js := st.js
			bestUnder := int64(-1)
			bestUnderJ := 0
			bestOver := st.nR
			bestOverJ := st.hi - st.lo
			for t := 0; t < st.d; t++ {
				if !st.vs[t].Has {
					continue
				}
				k := st.ks[t]
				switch {
				case k >= st.kminR && k <= st.kmaxR:
					return st.finish(pe, AMSResult[K]{
						Threshold: st.vs[t].Val,
						Count:     st.accepted + k,
						LocalLen:  st.lo + int(js[t]),
						Rounds:    st.round,
					})
				case k < st.kminR && k > bestUnder:
					bestUnder, bestUnderJ = k, int(js[t])
				case k > st.kmaxR && k < bestOver:
					bestOver, bestOverJ = k, int(js[t])
				}
			}
			nROld := st.nR
			if bestUnder >= 0 {
				st.accepted += bestUnder
				st.kminR -= bestUnder
				st.kmaxR -= bestUnder
				st.nR -= bestUnder
				st.lo += bestUnderJ
				bestOverJ -= bestUnderJ
			}
			if bestOver < nROld {
				st.nR = bestOver - max(bestUnder, 0)
				st.hi = st.lo + bestOverJ
			}
			st.round++
			st.phase = aphRound
		case aphFallbackWait:
			v := st.ms.resV
			st.ms.release(pe)
			st.ms = nil
			return st.finish(pe, AMSResult[K]{
				Threshold: v,
				Count:     st.accepted + st.kminR,
				LocalLen:  st.s.CountLE(v),
				Rounds:    amsMaxRounds,
			})
		default:
			return nil
		}
	}
}
