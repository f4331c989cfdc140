package coll

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// The hypercube router as a stepper (RouteCombineStep); a blocking body
// drives it through comm.RunSteps, and out receives a borrowed view of
// the routed batch.
//
// The route engine ships every batch as a pooled copy with ownership
// transfer (the receiver recycles it after folding it in), so its
// internal ping-pong buffers are safe to reuse across rounds: nothing a
// partner may still be reading is ever overwritten.

// routeStep phases.
const (
	rtphInit      = iota
	rtphHighWait  // high rank: awaiting its final batch
	rtphExtraWait // low partner: awaiting the folded-in batch
	rtphBit       // partition + post + ship for the current hypercube dimension
	rtphBitWait
	rtphUnfold
)

// routeStep is the hypercube routing engine as a continuation: fold-in
// of non-power-of-two stragglers, the dimension sweeps with optional
// per-step combine, and the unfold. It lends hold (whose backing is
// engine-owned, the ping-pong buffers) to out, then releases itself.
type routeStep[T any] struct {
	dest  func(T) int
	cmb   func([]T) []T
	out   func([]T)
	pool  *commbuf.Pool[T]
	tag   comm.Tag
	rank  int
	r     int
	dims  int
	extra int
	bit   int
	peer  int
	hold  []T
	// bufA/bufB are the alternating partition targets (hold aliases at
	// most one of them, never the one being written), shipBuf the staging
	// area for outgoing batches (always copied into pooled messages
	// before sending, so reuse is safe). All three keep their capacity
	// across pooling.
	bufA, bufB []T
	shipBuf    []T
	useA       bool
	h          *comm.RecvHandle
	phase      int
}

// RouteCombineStep is the hypercube router as a stepper, for items whose
// destination is derivable from the item itself (e.g. a hashed key):
// nothing but the payload travels. dest must be pure; combine (optional)
// re-aggregates the held batch after every exchange and must preserve
// destinations. out receives this PE's routed batch as a borrowed view
// valid only during the call. O(log p) startups per PE; a non-power-of-two
// p folds the top p−r ranks onto their partners first and unfolds at the
// end (two extra exchanges). Steady-state allocation-free (modulo the
// caller's own combine hook).
func RouteCombineStep[T any](pe *comm.PE, items []T, dest func(T) int, combine func([]T) []T, out func([]T)) comm.Stepper {
	s := comm.GetPooled[routeStep[T]](pe)
	bufA, bufB, ship := s.bufA[:0], s.bufB[:0], s.shipBuf[:0]
	*s = routeStep[T]{dest: dest, cmb: combine, out: out, hold: items, bufA: bufA, bufB: bufB, shipBuf: ship}
	return s
}

// finish lends hold to out, then releases the state (keeping the
// buffers' capacity).
func (s *routeStep[T]) finish(pe *comm.PE) *comm.RecvHandle {
	if s.out != nil {
		s.out(s.hold)
	}
	bufA, bufB, ship := s.bufA[:0], s.bufB[:0], s.shipBuf[:0]
	*s = routeStep[T]{bufA: bufA, bufB: bufB, shipBuf: ship}
	comm.PutPooled(pe, s)
	return nil
}

// flipKeep returns the reset partition target hold does not alias.
func (s *routeStep[T]) flipKeep() []T {
	s.useA = !s.useA
	if s.useA {
		return s.bufA[:0]
	}
	return s.bufB[:0]
}

// storeKeep records the (possibly grown) partition buffer back.
func (s *routeStep[T]) storeKeep(b []T) {
	if s.useA {
		s.bufA = b
	} else {
		s.bufB = b
	}
}

// combineHold applies the optional per-step combine hook.
func (s *routeStep[T]) combineHold() {
	if s.cmb != nil {
		s.hold = s.cmb(s.hold)
	}
}

// take receives the exchange's batch and appends it onto dst.
func (s *routeStep[T]) take(dst []T) []T {
	rxAny, _ := s.h.Wait()
	s.h = nil
	rx := rxAny.(*[]T)
	dst = append(dst, *rx...)
	s.pool.Put(rx)
	return dst
}

func (s *routeStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case rtphInit:
			for _, it := range s.hold {
				if d := s.dest(it); d < 0 || d >= p {
					panic(fmt.Sprintf("coll: RouteCombine item with invalid dest %d", d))
				}
			}
			if p == 1 {
				s.combineHold()
				return s.finish(pe)
			}
			s.pool = commbuf.For[T]()
			s.tag = pe.NextCollTag()
			s.rank = pe.Rank()
			s.r = 1
			s.dims = 0
			for s.r*2 <= p {
				s.r *= 2
				s.dims++
			}
			s.extra = p - s.r
			if s.rank >= s.r {
				// Fold-in: hand everything to the low partner, then await the
				// final batch (receive posted before the send so the hand-over
				// and the eventual return overlap).
				s.peer = s.rank - s.r
				s.h = pe.IRecv(s.peer, s.tag)
				sendCopy(pe, s.pool, s.peer, s.tag, s.hold)
				s.hold = s.flipKeep()
				s.phase = rtphHighWait
				if !s.h.Test() {
					return s.h
				}
				continue
			}
			if s.rank < s.extra {
				s.peer = s.rank + s.r
				s.h = pe.IRecv(s.peer, s.tag)
				s.phase = rtphExtraWait
				if !s.h.Test() {
					return s.h
				}
				continue
			}
			s.bit = 0
			s.phase = rtphBit
		case rtphHighWait:
			s.hold = s.take(s.hold)
			s.storeKeep(s.hold)
			s.combineHold()
			return s.finish(pe)
		case rtphExtraWait:
			// hold still aliases the caller's items here (the fold-in
			// appends onto it) — it must NOT be stored as a keep buffer, or
			// a later partition round would write into the caller's slice.
			s.hold = s.take(s.hold)
			s.combineHold()
			s.bit = 0
			s.phase = rtphBit
		case rtphBit:
			if s.bit >= s.dims {
				s.phase = rtphUnfold
				continue
			}
			maskBit := 1 << s.bit
			s.peer = s.rank ^ maskBit
			keep := s.flipKeep()
			shipB := s.shipBuf[:0]
			for _, it := range s.hold {
				carrier := s.dest(it)
				if carrier >= s.r {
					carrier -= s.r
				}
				if carrier&maskBit != s.rank&maskBit {
					shipB = append(shipB, it)
				} else {
					keep = append(keep, it)
				}
			}
			s.shipBuf = shipB
			s.hold = keep
			s.h = pe.IRecv(s.peer, s.tag)
			sendCopy(pe, s.pool, s.peer, s.tag, shipB)
			s.phase = rtphBitWait
			if !s.h.Test() {
				return s.h
			}
		case rtphBitWait:
			s.hold = s.take(s.hold)
			s.storeKeep(s.hold)
			s.combineHold()
			s.bit++
			s.phase = rtphBit
		case rtphUnfold:
			if s.rank < s.extra {
				// Everything for rank+r goes back out.
				mine := s.flipKeep()
				theirs := s.shipBuf[:0]
				for _, it := range s.hold {
					if s.dest(it) == s.rank+s.r {
						theirs = append(theirs, it)
					} else {
						mine = append(mine, it)
					}
				}
				s.shipBuf = theirs
				sendCopy(pe, s.pool, s.rank+s.r, s.tag, theirs)
				s.hold = mine
				s.storeKeep(mine)
			}
			s.combineHold()
			return s.finish(pe)
		default:
			return nil
		}
	}
}
