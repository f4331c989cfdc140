package sel

import (
	"cmp"
	"fmt"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/qsel"
	"commtopk/internal/xrand"
)

// smallestKStep phases.
const (
	skphInit      = iota // start the global size sum
	skphNWait            // harvest n, branch the trivial cases
	skphKthWait          // harvest the k-th element, start the below count
	skphBelowWait        // harvest the global below count, start the tie scan
	skphPrevWait         // harvest the tie prefix, extract the local share
	skphDone
)

// smallestKStep — see SmallestKStep.
type smallestKStep[K cmp.Ordered] struct {
	local []K
	k     int64
	rng   *xrand.RNG
	out   func([]K)
	self  bool
	res   []K

	n      int64
	i64    int64
	v      K
	below  int64
	equal  int64
	globLo int64

	cur comm.Stepper

	onI64 func(int64)
	onK   func(K)

	phase int
}

func newSmallestKStep[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG, out func([]K), self bool) *smallestKStep[K] {
	s := comm.GetPooled[smallestKStep[K]](pe)
	s.local, s.k, s.rng, s.out, s.self = local, k, rng, out, self
	s.phase = skphInit
	s.cur = nil
	if s.onI64 == nil {
		s.onI64 = func(v int64) { s.i64 = v }
		s.onK = func(v K) { s.v = v }
	}
	return s
}

// SmallestKStep is the continuation form of SmallestK: out receives this
// PE's share of the k globally smallest elements (exactly k in total,
// duplicates split by a prefix sum over ranks), caller-owned, order
// unspecified. Semantics, panics, RNG consumption and the metered
// schedule match SmallestK exactly — the blocking form drives this
// stepper through comm.RunSteps.
func SmallestKStep[K cmp.Ordered](pe *comm.PE, local []K, k int64, rng *xrand.RNG, out func([]K)) comm.Stepper {
	return newSmallestKStep(pe, local, k, rng, out, true)
}

func (s *smallestKStep[K]) release(pe *comm.PE) {
	var zero K
	s.local, s.res = nil, nil
	s.rng, s.out, s.cur = nil, nil, nil
	s.v = zero
	comm.PutPooled(pe, s)
}

func (s *smallestKStep[K]) finish(pe *comm.PE, v []K) *comm.RecvHandle {
	s.res = v
	s.phase = skphDone
	if s.self {
		out := s.out
		s.release(pe)
		if out != nil {
			out(v)
		}
	}
	return nil
}

func (s *smallestKStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case skphInit:
			s.cur = coll.AllReduceScalarStep(pe, int64(len(s.local)), addInt64, s.onI64)
			s.phase = skphNWait
		case skphNWait:
			s.n = s.i64
			if s.k < 0 || s.k > s.n {
				panic(fmt.Sprintf("sel: k %d out of range 0..%d", s.k, s.n))
			}
			if s.k == 0 {
				return s.finish(pe, nil)
			}
			if s.k == s.n {
				return s.finish(pe, slices.Clone(s.local))
			}
			s.cur = KthNStep(pe, s.local, s.n, s.k, s.rng, s.onK)
			s.phase = skphKthWait
		case skphKthWait:
			belowI, equalI := qsel.Rank(s.local, s.v)
			s.below, s.equal = int64(belowI), int64(equalI)
			s.cur = coll.AllReduceScalarStep(pe, s.below, addInt64, s.onI64)
			s.phase = skphBelowWait
		case skphBelowWait:
			s.globLo = s.i64
			s.cur = coll.ExScanSumStep(pe, s.equal, s.onI64)
			s.phase = skphPrevWait
		case skphPrevWait:
			needEqual := s.k - s.globLo
			takeEqual := clamp(needEqual-s.i64, 0, s.equal)
			out := make([]K, 0, s.below+takeEqual)
			v := s.v
			for _, e := range s.local {
				switch {
				case e < v:
					out = append(out, e)
				case e == v && takeEqual > 0:
					out = append(out, e)
					takeEqual--
				}
			}
			return s.finish(pe, out)
		default:
			return nil
		}
	}
}
