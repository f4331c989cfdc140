package coll

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// Continuation forms of the rooted binomial-tree collectives Reduce and
// Scatterv — the same wire schedule (tags, partners, message sizes) as
// the blocking forms, expressed as steppers so serving-layer queries can
// interleave them on one RunAsync scheduler. The blocking forms drive
// these engines via comm.RunSteps, exactly like Gatherv/gathervStep, so
// there is one schedule implementation per collective.

// ---------------------------------------------------------------------------
// Binomial reduce
// ---------------------------------------------------------------------------

// reduceStep — see ReduceStep.
type reduceStep[T any] struct {
	root   int
	dst, x []T
	op     func(a, b T) T
	out    func([]T)
	pool   *commbuf.Pool[T]
	tag    comm.Tag
	vr     int
	mask   int
	accPtr *[]T
	h      *comm.RecvHandle
	phase  int
}

// ReduceStep is the continuation form of ReduceInto: x combined
// elementwise with op along a binomial tree, the result written into a
// resized dst and handed to out on the root (out(nil) elsewhere). op
// must be associative and commutative; dst must not overlap x. With a
// reused dst the steady state allocates nothing on any PE.
func ReduceStep[T any](pe *comm.PE, root int, dst, x []T, op func(a, b T) T, out func([]T)) comm.Stepper {
	s := comm.GetPooled[reduceStep[T]](pe)
	*s = reduceStep[T]{root: root, dst: dst, x: x, op: op, out: out}
	return s
}

func (s *reduceStep[T]) finish(pe *comm.PE, result []T) *comm.RecvHandle {
	out := s.out
	*s = reduceStep[T]{}
	comm.PutPooled(pe, s)
	if out != nil {
		out(result)
	}
	return nil
}

func (s *reduceStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case 0:
			if p == 1 {
				dst := commbuf.Resize(s.dst[:0], len(s.x))
				copy(dst, s.x)
				return s.finish(pe, dst)
			}
			s.pool = commbuf.For[T]()
			s.tag = pe.NextCollTag()
			s.vr = (pe.Rank() - s.root + p) % p
			s.mask = 1
			s.phase = 1
		case 1:
			for s.mask < p {
				if s.vr&s.mask != 0 {
					parent := ((s.vr &^ s.mask) + s.root) % p
					if s.accPtr != nil {
						// Hand the accumulator itself to the parent; it
						// recycles it.
						pe.Send(parent, s.tag, s.accPtr, sliceWords(*s.accPtr))
						s.accPtr = nil
					} else {
						sendCopy(pe, s.pool, parent, s.tag, s.x)
					}
					return s.finish(pe, nil)
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
				dst := commbuf.Resize(s.dst[:0], len(s.x))
				if s.accPtr != nil {
					copy(dst, *s.accPtr)
					s.pool.Put(s.accPtr)
					s.accPtr = nil
				} else {
					copy(dst, s.x)
				}
				return s.finish(pe, dst)
			}
		default:
			rxAny, _ := s.h.Wait()
			s.h = nil
			rx := rxAny.(*[]T)
			if s.accPtr == nil {
				// First contribution: fold x into the received buffer and
				// adopt it as the accumulator — zero copies, zero allocs.
				if len(*rx) != len(s.x) {
					panic(fmt.Sprintf("coll: reduction vector length mismatch: %d vs %d", len(s.x), len(*rx)))
				}
				for i, v := range s.x {
					(*rx)[i] = s.op(v, (*rx)[i])
				}
				s.accPtr = rx
			} else {
				combine(s.op, *s.accPtr, *rx)
				s.pool.Put(rx)
			}
			s.mask <<= 1
			s.phase = 1
		}
	}
}

// ---------------------------------------------------------------------------
// Binomial reduce + concatenate (one up-sweep)
// ---------------------------------------------------------------------------

// reduceConcatStep — see ReduceConcatStep.
type reduceConcatStep[T any] struct {
	root  int
	hdr   []int64
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
// already rank order). out receives both on the root as borrowed pooled
// views, valid only during the call, which it may reorder in place; on
// every other PE it receives (nil, nil). p−1 messages and ⌈log₂ p⌉
// rounds in total; an edge carries len(hdr) words plus its subtree's
// data. Neither hdr nor data is retained past the first Step, and the
// steady state allocates nothing on any PE.
func ReduceConcatStep[T any](pe *comm.PE, root int, hdr []int64, data []T, out func(sums []int64, all []T)) comm.Stepper {
	s := comm.GetPooled[reduceConcatStep[T]](pe)
	*s = reduceConcatStep[T]{root: root, hdr: hdr, data: data, out: out}
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
			combine(addOf[int64], *s.sums, *rx.lens)
			*s.all = append(*s.all, (*rx.data)...)
			s.ipool.Put(rx.lens)
			s.tpool.Put(rx.data)
			s.mask <<= 1
			s.phase = 1
		}
	}
}

// ---------------------------------------------------------------------------
// Binomial scatter
// ---------------------------------------------------------------------------

// scattervStep — see ScattervStep.
type scattervStep[T any] struct {
	root  int
	parts [][]T
	out   func([]T)
	tag   comm.Tag
	vr    int
	mask  int
	hold  []rankedBlock[T]
	h     *comm.RecvHandle
	phase int
}

// ScattervStep is the continuation form of Scatterv: root's parts[i]
// travels to PE i along a binomial tree and out receives the local part
// on every PE. parts is only read on root; the delivered slice aliases
// the root's parts[i] (not a copy), exactly like the blocking form.
func ScattervStep[T any](pe *comm.PE, root int, parts [][]T, out func([]T)) comm.Stepper {
	s := comm.GetPooled[scattervStep[T]](pe)
	*s = scattervStep[T]{root: root, parts: parts, out: out}
	return s
}

func (s *scattervStep[T]) finish(pe *comm.PE, mine []T) *comm.RecvHandle {
	out := s.out
	*s = scattervStep[T]{}
	comm.PutPooled(pe, s)
	if out != nil {
		out(mine)
	}
	return nil
}

func (s *scattervStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case 0:
			if p == 1 {
				return s.finish(pe, s.parts[0])
			}
			if pe.Rank() == s.root && len(s.parts) != p {
				panic(fmt.Sprintf("coll: Scatterv needs %d parts, got %d", p, len(s.parts)))
			}
			s.tag = pe.NextCollTag()
			s.vr = (pe.Rank() - s.root + p) % p
			// mask starts at half the power of two covering my subtree in
			// vr-space (mySpan in the blocking form).
			mySpan := 1
			if s.vr == 0 {
				for mySpan < p {
					mySpan <<= 1
				}
				s.mask = mySpan >> 1
				for i, part := range s.parts {
					s.hold = append(s.hold, rankedBlock[T]{rank: (i - s.root + p) % p, data: part})
				}
				s.phase = 2
				continue
			}
			mySpan = s.vr & (-s.vr)
			s.mask = mySpan >> 1
			parent := ((s.vr - mySpan) + s.root) % p
			s.h = pe.IRecv(parent, s.tag)
			s.phase = 1
			if !s.h.Test() {
				return s.h
			}
		case 1:
			rxAny, _ := s.h.Wait()
			s.h = nil
			s.hold = rxAny.([]rankedBlock[T])
			s.phase = 2
		default:
			for ; s.mask >= 1; s.mask >>= 1 {
				child := s.vr | s.mask
				if child >= p {
					continue
				}
				var block []rankedBlock[T]
				var words int64
				for _, b := range s.hold {
					if b.rank >= child && b.rank < child+s.mask {
						block = append(block, b)
						words += sliceWords(b.data)
					}
				}
				pe.Send((child+s.root)%p, s.tag, block, words)
				// Keep only what remains in my half.
				var rest []rankedBlock[T]
				for _, b := range s.hold {
					if b.rank < child || b.rank >= child+s.mask {
						rest = append(rest, b)
					}
				}
				s.hold = rest
			}
			var mine []T
			for _, b := range s.hold {
				if b.rank == s.vr {
					mine = b.data
				}
			}
			return s.finish(pe, mine)
		}
	}
}
