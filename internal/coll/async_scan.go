package coll

import (
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// Continuation forms of the vector prefix scans. Same wire schedule as
// the blocking InScan/ExScan (Hillis–Steele dissemination, plus one
// shift-down round for the exclusive form), which are these steppers
// driven by comm.RunSteps; ExScanSum is the exclusive engine on one
// element.

// inScan phase constants.
const (
	isphInit = iota
	isphRounds
	isphRoundWait
	isphShift
	isphShiftWait
	isphDone
)

// inScanStep — see InScanStep / ExScanStep.
type inScanStep[T any] struct {
	acc       []T
	op        func(a, b T) T
	identity  []T
	exclusive bool
	out       func([]T)
	pool      *commbuf.Pool[T]
	tag       comm.Tag
	rank      int
	d         int
	h         *comm.RecvHandle
	phase     int
}

// InScanStep is the continuation form of InScan: dst (resized as needed,
// may be nil) receives op(x@0, ..., x@rank) elementwise and is handed to
// out. The result never aliases x.
func InScanStep[T any](pe *comm.PE, dst, x []T, op func(a, b T) T, out func([]T)) comm.Stepper {
	dst = commbuf.Resize(dst[:0], len(x))
	copy(dst, x)
	return newInScanStep(pe, dst, op, nil, false, out)
}

// ExScanStep is the continuation form of ExScan: dst receives
// op(x@0, ..., x@(rank-1)) elementwise — the identity on rank 0.
// identity must have the same length as x.
func ExScanStep[T any](pe *comm.PE, dst, x []T, op func(a, b T) T, identity []T, out func([]T)) comm.Stepper {
	dst = commbuf.Resize(dst[:0], len(x))
	copy(dst, x)
	return newInScanStep(pe, dst, op, identity, true, out)
}

// newInScanStep scans acc, this PE's contribution, in place.
func newInScanStep[T any](pe *comm.PE, acc []T, op func(a, b T) T, identity []T, exclusive bool, out func([]T)) *inScanStep[T] {
	s := comm.GetPooled[inScanStep[T]](pe)
	*s = inScanStep[T]{acc: acc, op: op, identity: identity, exclusive: exclusive, out: out}
	return s
}

func (s *inScanStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case isphInit:
			if p == 1 {
				if s.exclusive {
					s.acc = s.acc[:0]
					s.acc = append(s.acc, s.identity...)
				}
				s.phase = isphDone
				continue
			}
			s.pool = commbuf.For[T]()
			s.rank = pe.Rank()
			s.tag = pe.NextCollTag()
			s.d = 1
			s.phase = isphRounds
		case isphRounds:
			if s.d >= p {
				if !s.exclusive {
					s.phase = isphDone
					continue
				}
				s.tag = pe.NextCollTag()
				s.phase = isphShift
				continue
			}
			// acc currently covers ranks (rank-d, rank]; post the round's
			// receive, then send, then fold — receive and send overlap.
			if s.rank-s.d >= 0 {
				s.h = pe.IRecv(s.rank-s.d, s.tag)
			}
			if s.rank+s.d < p {
				sendCopy(pe, s.pool, s.rank+s.d, s.tag, s.acc)
			}
			s.phase = isphRoundWait
			if s.h != nil && !s.h.Test() {
				return s.h
			}
		case isphRoundWait:
			if s.h != nil {
				rxAny, _ := s.h.Wait()
				s.h = nil
				rx := rxAny.(*[]T)
				// acc = op(rx, acc): the earlier-ranks prefix is the left
				// operand.
				for i, v := range *rx {
					s.acc[i] = s.op(v, s.acc[i])
				}
				s.pool.Put(rx)
			}
			s.d <<= 1
			s.phase = isphRounds
		case isphShift:
			if s.rank > 0 {
				s.h = pe.IRecv(s.rank-1, s.tag)
			}
			if s.rank+1 < p {
				sendCopy(pe, s.pool, s.rank+1, s.tag, s.acc)
			}
			s.phase = isphShiftWait
			if s.h != nil && !s.h.Test() {
				return s.h
			}
		case isphShiftWait:
			if s.h != nil {
				rxAny, _ := s.h.Wait()
				s.h = nil
				rx := rxAny.(*[]T)
				copy(s.acc, *rx)
				s.pool.Put(rx)
			} else {
				// Rank 0: the exclusive prefix is the identity.
				s.acc = s.acc[:0]
				s.acc = append(s.acc, s.identity...)
			}
			s.phase = isphDone
		default:
			out, acc := s.out, s.acc
			*s = inScanStep[T]{}
			comm.PutPooled(pe, s)
			if out != nil {
				out(acc)
			}
			return nil
		}
	}
}
