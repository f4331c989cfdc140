package coll

import (
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// The exclusive prefix-scan engine as a stepper: Hillis–Steele
// dissemination, then one shift-down round. ExScanSum runs it on one
// element; rank 0's prefix is the zero value, the identity of a sum.

// exScan phase constants.
const (
	esphInit = iota
	esphRounds
	esphRoundWait
	esphShift
	esphShiftWait
	esphDone
)

// exScanStep — see newExScanStep.
type exScanStep[T any] struct {
	acc   []T
	op    func(a, b T) T
	out   func([]T)
	pool  *commbuf.Pool[T]
	tag   comm.Tag
	rank  int
	d     int
	h     *comm.RecvHandle
	phase int
}

// newExScanStep scans acc, this PE's contribution, in place, leaving
// op(x@0, ..., x@(rank-1)) in it — zeros on rank 0. out receives acc.
func newExScanStep[T any](pe *comm.PE, acc []T, op func(a, b T) T, out func([]T)) *exScanStep[T] {
	s := comm.GetPooled[exScanStep[T]](pe)
	*s = exScanStep[T]{acc: acc, op: op, out: out}
	return s
}

func (s *exScanStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case esphInit:
			if p == 1 {
				clear(s.acc)
				s.phase = esphDone
				continue
			}
			s.pool = commbuf.For[T]()
			s.rank = pe.Rank()
			s.tag = pe.NextCollTag()
			s.d = 1
			s.phase = esphRounds
		case esphRounds:
			if s.d >= p {
				s.tag = pe.NextCollTag()
				s.phase = esphShift
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
			s.phase = esphRoundWait
			if s.h != nil && !s.h.Test() {
				return s.h
			}
		case esphRoundWait:
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
			s.phase = esphRounds
		case esphShift:
			if s.rank > 0 {
				s.h = pe.IRecv(s.rank-1, s.tag)
			}
			if s.rank+1 < p {
				sendCopy(pe, s.pool, s.rank+1, s.tag, s.acc)
			}
			s.phase = esphShiftWait
			if s.h != nil && !s.h.Test() {
				return s.h
			}
		case esphShiftWait:
			if s.h != nil {
				rxAny, _ := s.h.Wait()
				s.h = nil
				rx := rxAny.(*[]T)
				copy(s.acc, *rx)
				s.pool.Put(rx)
			} else {
				clear(s.acc) // rank 0: the empty prefix
			}
			s.phase = esphDone
		default:
			out, acc := s.out, s.acc
			*s = exScanStep[T]{}
			comm.PutPooled(pe, s)
			if out != nil {
				out(acc)
			}
			return nil
		}
	}
}
