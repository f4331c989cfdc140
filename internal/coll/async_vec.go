package coll

import (
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// The vector all-reduce engine (AllReduce, AllReduceIntoStep and, on one
// element, the scalar all-reduce) and the vector broadcast engine
// (BroadcastVecStep and, on one element, BroadcastScalar). The blocking
// forms in coll.go drive the same steppers through comm.RunSteps, so the
// two execution modes cannot diverge in results or metered statistics.
//
// Result-delivery convention: the *Step forms hand results to the out
// callback as borrowed views, valid only during the call, so a
// continuation body that consumes results in place runs allocation-free.
// The blocking wrappers keep their materializing contracts (caller-owned
// results).

// ---------------------------------------------------------------------------
// Vector all-reduce
// ---------------------------------------------------------------------------

// arLevel is one recursive-halving level of the Rabenseifner path.
type arLevel struct {
	partner int
	keptLow bool
	lowLen  int
	highLen int
}

// allReduceAccStep phases.
const (
	avphInit = iota
	avphStragglerWait
	avphExtraWait
	avphStart
	avphRound
	avphRoundWait
	avphRSRound
	avphRSWait
	avphAGRound
	avphAGWait
	avphFoldOut
	avphDone
)

// allReduceAccStep is the all-reduce engine as a continuation: it
// combines acc (this PE's contribution) with every other PE's, in
// place, leaving the global result in acc on every PE. Short vectors use
// recursive doubling; long vectors the Rabenseifner reduce-scatter +
// all-gather; non-power-of-two stragglers fold onto partners first —
// exactly the blocking AllReduce's schedule (which drives this stepper).
type allReduceAccStep[T any] struct {
	acc   []T
	op    func(a, b T) T
	out   func([]T)
	pool  *commbuf.Pool[T]
	tag   comm.Tag
	rank  int
	r     int
	extra int
	mask  int
	// Rabenseifner state: the live window [lo, hi), the current level's
	// split, and the halving history retraced by the all-gather. hist's
	// backing survives pooling so steady state allocates nothing.
	lo, hi  int
	mid     int
	keepLow bool
	hist    []arLevel
	idx     int
	h       *comm.RecvHandle
	phase   int
}

func newAllReduceAccStep[T any](pe *comm.PE, acc []T, op func(a, b T) T, out func([]T)) *allReduceAccStep[T] {
	s := comm.GetPooled[allReduceAccStep[T]](pe)
	hist := s.hist
	*s = allReduceAccStep[T]{acc: acc, op: op, out: out, hist: hist[:0]}
	return s
}

// AllReduceIntoStep is AllReduce writing into dst (grown as needed; nil
// to allocate): dst receives the elementwise combination of x across PEs
// and is handed to out. dst must not overlap x. With a reused dst the
// steady state allocates nothing.
func AllReduceIntoStep[T any](pe *comm.PE, dst, x []T, op func(a, b T) T, out func([]T)) comm.Stepper {
	dst = commbuf.Resize(dst[:0], len(x))
	copy(dst, x)
	return newAllReduceAccStep(pe, dst, op, out)
}

func (s *allReduceAccStep[T]) take() *[]T {
	rxAny, _ := s.h.Wait()
	s.h = nil
	return rxAny.(*[]T)
}

func (s *allReduceAccStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case avphInit:
			if p == 1 {
				s.phase = avphDone
				continue
			}
			s.pool = commbuf.For[T]()
			s.tag = pe.NextCollTag()
			s.rank = pe.Rank()
			s.r = 1
			for s.r*2 <= p {
				s.r *= 2
			}
			s.extra = p - s.r
			if s.rank >= s.r {
				// Straggler: fold onto the low partner, then wait for the
				// result (receive posted up front so the transfers overlap).
				s.h = pe.IRecv(s.rank-s.r, s.tag)
				sendCopy(pe, s.pool, s.rank-s.r, s.tag, s.acc)
				s.phase = avphStragglerWait
				if !s.h.Test() {
					return s.h
				}
				continue
			}
			if s.rank < s.extra {
				s.h = pe.IRecv(s.rank+s.r, s.tag)
				s.phase = avphExtraWait
				if !s.h.Test() {
					return s.h
				}
				continue
			}
			s.phase = avphStart
		case avphStragglerWait:
			rx := s.take()
			copy(s.acc, *rx)
			s.pool.Put(rx)
			s.phase = avphDone
		case avphExtraWait:
			rx := s.take()
			combine(s.op, s.acc, *rx)
			s.pool.Put(rx)
			s.phase = avphStart
		case avphStart:
			// One element cannot be halved: the scalar collectives always
			// take recursive doubling, whatever the element's size.
			if len(s.acc) >= 2 && sliceWords(s.acc) >= int64(4*s.r) && s.r > 2 {
				s.lo, s.hi = 0, len(s.acc)
				s.hist = s.hist[:0]
				s.mask = s.r / 2
				s.phase = avphRSRound
			} else {
				s.mask = 1
				s.phase = avphRound
			}
		case avphRound:
			if s.mask >= s.r {
				s.phase = avphFoldOut
				continue
			}
			// Ship a copy (the partner reads it while we keep mutating acc).
			partner := s.rank ^ s.mask
			b := s.pool.Get(len(s.acc))
			copy(*b, s.acc)
			s.h = pe.IRecv(partner, s.tag)
			pe.Send(partner, s.tag, b, sliceWords(s.acc))
			s.phase = avphRoundWait
			if !s.h.Test() {
				return s.h
			}
		case avphRoundWait:
			rx := s.take()
			combine(s.op, s.acc, *rx)
			s.pool.Put(rx)
			s.mask <<= 1
			s.phase = avphRound
		case avphRSRound:
			// Reduce-scatter by recursive halving.
			if s.mask < 1 {
				s.idx = len(s.hist) - 1
				s.phase = avphAGRound
				continue
			}
			partner := s.rank ^ s.mask
			s.mid = s.lo + (s.hi-s.lo)/2
			s.keepLow = s.rank&s.mask == 0
			var sendSeg []T
			if s.keepLow {
				sendSeg = s.acc[s.mid:s.hi]
			} else {
				sendSeg = s.acc[s.lo:s.mid]
			}
			b := s.pool.Get(len(sendSeg))
			copy(*b, sendSeg)
			s.h = pe.IRecv(partner, s.tag)
			pe.Send(partner, s.tag, b, sliceWords(sendSeg))
			s.phase = avphRSWait
			if !s.h.Test() {
				return s.h
			}
		case avphRSWait:
			rx := s.take()
			partner := s.rank ^ s.mask
			if s.keepLow {
				for i, v := range *rx {
					s.acc[s.lo+i] = s.op(s.acc[s.lo+i], v)
				}
				s.hist = append(s.hist, arLevel{partner, true, s.mid - s.lo, s.hi - s.mid})
				s.hi = s.mid
			} else {
				for i, v := range *rx {
					s.acc[s.mid+i] = s.op(s.acc[s.mid+i], v)
				}
				s.hist = append(s.hist, arLevel{partner, false, s.mid - s.lo, s.hi - s.mid})
				s.lo = s.mid
			}
			s.pool.Put(rx)
			s.mask >>= 1
			s.phase = avphRSRound
		case avphAGRound:
			// All-gather by retracing the halving in reverse.
			if s.idx < 0 {
				s.phase = avphFoldOut
				continue
			}
			lv := s.hist[s.idx]
			seg := s.acc[s.lo:s.hi]
			b := s.pool.Get(len(seg))
			copy(*b, seg)
			s.h = pe.IRecv(lv.partner, s.tag)
			pe.Send(lv.partner, s.tag, b, sliceWords(seg))
			s.phase = avphAGWait
			if !s.h.Test() {
				return s.h
			}
		case avphAGWait:
			rx := s.take()
			lv := s.hist[s.idx]
			if lv.keptLow {
				copy(s.acc[s.hi:s.hi+len(*rx)], *rx)
				s.hi += lv.highLen
			} else {
				copy(s.acc[s.lo-len(*rx):s.lo], *rx)
				s.lo -= lv.lowLen
			}
			s.pool.Put(rx)
			s.idx--
			s.phase = avphAGRound
		case avphFoldOut:
			if s.rank < s.extra {
				sendCopy(pe, s.pool, s.rank+s.r, s.tag, s.acc)
			}
			s.phase = avphDone
		default:
			out, acc := s.out, s.acc
			hist := s.hist[:0]
			*s = allReduceAccStep[T]{hist: hist}
			comm.PutPooled(pe, s)
			if out != nil {
				out(acc)
			}
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Vector broadcast
// ---------------------------------------------------------------------------

// broadcastStep — see BroadcastVecStep.
type broadcastStep[T any] struct {
	root int
	v    []T
	one  [1]T // BroadcastScalar's value, so the blocking form allocates nothing
	out  func([]T)
	pool *commbuf.Pool[T]
	rx   *[]T // the received buffer (non-root), recycled after out
	tag  comm.Tag
	vr   int
	mask int
	h    *comm.RecvHandle
	held bool // driven by the blocking BroadcastScalar, which harvests and releases
	// phase: 0 post the receive, 1 take it, 2 forward, 3 deliver.
	phase int
}

// BroadcastVecStep broadcasts root's vector v along a binomial tree, in
// one message per edge of len(v) elements (non-root inputs are ignored,
// and the length travels with the message). out receives the vector on
// every PE as a borrowed view, valid only during the call: on the root v
// itself, elsewhere a pooled buffer. On one element it is the scalar
// broadcast: the words and startups of BroadcastScalar. The steady state
// allocates nothing.
func BroadcastVecStep[T any](pe *comm.PE, root int, v []T, out func([]T)) comm.Stepper {
	return newBroadcast(pe, root, v, out)
}

func newBroadcast[T any](pe *comm.PE, root int, v []T, out func([]T)) *broadcastStep[T] {
	s := comm.GetPooled[broadcastStep[T]](pe)
	*s = broadcastStep[T]{root: root, v: v, out: out}
	return s
}

func (s *broadcastStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case 0:
			if p == 1 {
				s.phase = 3
				continue
			}
			s.pool = commbuf.For[T]()
			s.tag = pe.NextCollTag()
			s.vr = (pe.Rank() - s.root + p) % p
			s.mask = 1
			for s.mask < p {
				if s.vr&s.mask != 0 {
					parent := ((s.vr &^ s.mask) + s.root) % p
					s.h = pe.IRecv(parent, s.tag)
					break
				}
				s.mask <<= 1
			}
			s.phase = 1
			if s.h != nil && !s.h.Test() {
				return s.h
			}
		case 1:
			if s.h != nil {
				rxAny, _ := s.h.Wait()
				s.h = nil
				s.rx = rxAny.(*[]T)
				s.v = *s.rx
			}
			s.phase = 2
		case 2:
			for s.mask >>= 1; s.mask > 0; s.mask >>= 1 {
				if child := s.vr | s.mask; child < p && child != s.vr {
					sendCopy(pe, s.pool, (child+s.root)%p, s.tag, s.v)
				}
			}
			s.phase = 3
		default:
			if s.held {
				return nil
			}
			out, v, pool, rx := s.out, s.v, s.pool, s.rx
			s.release(pe)
			if out != nil {
				out(v)
			}
			if rx != nil {
				pool.Put(rx)
			}
			return nil
		}
	}
}

// release returns the state to the pool (the received buffer, if any, is
// the caller's to recycle).
func (s *broadcastStep[T]) release(pe *comm.PE) {
	*s = broadcastStep[T]{}
	comm.PutPooled(pe, s)
}
