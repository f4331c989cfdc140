package coll

import (
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// The binomial up-sweep as a stepper: it sums a header and concatenates
// data blocks on the root, segment by segment (ReduceConcatStep, one
// selection level's way up for all of its lanes).

// reduceConcatStep — see ReduceConcatStep.
type reduceConcatStep[T any] struct {
	root  int
	hdr   []int64
	segs  int
	data  []T
	out   func(sums []int64, all []T)
	wpool *commbuf.Pool[bruckMsg[T]]
	ipool *commbuf.Pool[int64]
	tpool *commbuf.Pool[T]
	tag   comm.Tag
	vr    int
	mask  int
	// Pooled accumulators: this PE's subtree so far. Their ownership moves
	// to the parent with the one message a non-root PE sends.
	sums  *[]int64
	all   *[]T
	h     *comm.RecvHandle
	phase int
}

// ReduceConcatStep sends two things up one binomial tree in one message
// per edge: hdr (the same length on every PE) is summed elementwise, and
// data (any length per PE) is concatenated in rank order starting at
// root (root, root+1, …, cyclically — a subtree of the tree is a
// contiguous rank range, so appending children in receive order is
// already rank order). data is segs ≥ 1 segments (the same number on
// every PE): the last segs−1 words of hdr are the lengths of the first
// segs−1 of them, and the last segment is the rest. Those words sum like
// the others, so every subtree's header states its own segment lengths,
// and the concatenation keeps each segment contiguous: the root receives
// segment 0 of every PE in rank order, then segment 1, and so on. out
// receives both on the root as borrowed pooled views, valid only during
// the call, which it may reorder in place; on every other PE it receives
// (nil, nil). p−1 messages and ⌈log₂ p⌉ rounds in total; an edge carries
// len(hdr) words plus its subtree's data. Neither hdr nor data is
// retained past the first Step, and the steady state allocates nothing
// on any PE.
func ReduceConcatStep[T any](pe *comm.PE, root int, hdr []int64, segs int, data []T, out func(sums []int64, all []T)) comm.Stepper {
	s := comm.GetPooled[reduceConcatStep[T]](pe)
	*s = reduceConcatStep[T]{root: root, hdr: hdr, segs: segs, data: data, out: out}
	return s
}

// finish releases the state, hands (sums, all) to out and then recycles
// whichever accumulators this PE still owns (the root's; nil elsewhere).
func (s *reduceConcatStep[T]) finish(pe *comm.PE, sums []int64, all []T) *comm.RecvHandle {
	out, ipool, tpool, sp, ap := s.out, s.ipool, s.tpool, s.sums, s.all
	*s = reduceConcatStep[T]{}
	comm.PutPooled(pe, s)
	if out != nil {
		out(sums, all)
	}
	if sp != nil {
		ipool.Put(sp)
		tpool.Put(ap)
	}
	return nil
}

func (s *reduceConcatStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case 0:
			// Also at p = 1: out may reorder what it is handed, so it gets
			// the pooled copy, never the caller's data.
			s.wpool, s.ipool, s.tpool = commbuf.For[bruckMsg[T]](), commbuf.For[int64](), commbuf.For[T]()
			s.tag = pe.NextCollTag()
			s.vr = (pe.Rank() - s.root + p) % p
			s.sums = s.ipool.Get(len(s.hdr))
			copy(*s.sums, s.hdr)
			s.all = s.tpool.GetCap(len(s.data))
			*s.all = append(*s.all, s.data...)
			s.hdr, s.data = nil, nil
			s.mask = 1
			s.phase = 1
		case 1:
			for s.mask < p {
				if s.vr&s.mask != 0 {
					parent := ((s.vr &^ s.mask) + s.root) % p
					wp := s.wpool.Get(1)
					(*wp)[0] = bruckMsg[T]{lens: s.sums, data: s.all}
					pe.Send(parent, s.tag, wp, int64(len(*s.sums))+sliceWords(*s.all))
					s.sums, s.all = nil, nil
					return s.finish(pe, nil, nil)
				}
				child := s.vr | s.mask
				if child < p {
					s.h = pe.IRecv((child+s.root)%p, s.tag)
					s.phase = 2
					if !s.h.Test() {
						return s.h
					}
					break
				}
				s.mask <<= 1
			}
			if s.phase == 1 {
				// Only vr == 0 (the root) exits the loop.
				return s.finish(pe, *s.sums, *s.all)
			}
		default:
			rxAny, _ := s.h.Wait()
			s.h = nil
			wp := rxAny.(*[]bruckMsg[T])
			rx := (*wp)[0]
			(*wp)[0] = bruckMsg[T]{}
			s.wpool.Put(wp)
			if s.segs > 1 {
				s.all = mergeSegs(s.tpool, s.all, *s.sums, *rx.data, *rx.lens, s.segs)
			} else {
				s.all = appendPooled(s.tpool, s.all, *rx.data)
			}
			combine(addOf[int64], *s.sums, *rx.lens)
			s.ipool.Put(rx.lens)
			s.tpool.Put(rx.data)
			s.mask <<= 1
			s.phase = 1
		}
	}
}

// mergeSegs concatenates b after a segment by segment into a pooled
// buffer, which it returns; a goes back to pool. ah and bh are the two
// headers, whose last segs−1 words are the lengths of the first segs−1
// segments of a and of b.
func mergeSegs[T any](pool *commbuf.Pool[T], a *[]T, ah []int64, b []T, bh []int64, segs int) *[]T {
	out := pool.GetCap(len(*a) + len(b))
	lens := len(ah) - (segs - 1)
	ai, bi := 0, 0
	for j := range segs {
		na, nb := len(*a)-ai, len(b)-bi
		if j < segs-1 {
			na, nb = int(ah[lens+j]), int(bh[lens+j])
		}
		*out = append(*out, (*a)[ai:ai+na]...)
		*out = append(*out, b[bi:bi+nb]...)
		ai, bi = ai+na, bi+nb
	}
	pool.Put(a)
	return out
}
