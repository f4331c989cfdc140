package coll

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// Continuation forms of the vector- and gather-shaped collectives:
// AllReduce (recursive doubling + the Rabenseifner long path), the
// dissemination all-gather (AllGatherv/AllGatherConcat), the staggered
// direct AllToAll, and BroadcastScalar. The hypercube router is in
// async_route.go.
//
// The reduction and gather engines here are THE implementation: the
// blocking forms in coll.go drive the same steppers through
// comm.RunSteps, so the two execution modes cannot diverge in results or
// metered statistics (additionally pinned by the async pairs and the
// randomized differential fuzz).
//
// Result-delivery convention: the *Step forms hand results to the out
// callback as borrowed views — valid only during the call, backed by
// pooled buffers recycled immediately after — so a continuation body
// that consumes results in place runs allocation-free. The blocking
// wrappers keep their documented materializing contracts (caller-owned
// results) by copying out of the engine before releasing it.

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
// Dissemination all-gather
// ---------------------------------------------------------------------------

// agBruckStep is the Bruck all-gather engine as a continuation (see
// allGatherBruck for the protocol). fresh selects the result-ownership
// mode: true allocates arena/lens freshly (the blocking AllGatherv and
// AllGatherConcat contracts — their caller-owned results view or copy
// the arena) and ships in-process read-only views per round; false draws
// them from the commbuf pools and ships pooled copies instead, because a
// pooled arena is recycled as soon as the op completes and a partner on
// another worker may still be reading a shipped view at that instant —
// the view optimization is only sound for arenas that die by GC. The
// engine does not self-release: consumers harvest arena/lens, then call
// release (pooled) or put (fresh).
type agBruckStep[T any] struct {
	data     []T
	fresh    bool
	arena    []T
	lens     []int64
	lensPtr  *[]int64
	arenaPtr *[]T
	fpool    *commbuf.Pool[bruckView[T]]
	wpool    *commbuf.Pool[bruckMsg[T]]
	tag      comm.Tag
	d        int
	h        *comm.RecvHandle
	phase    int
}

func newAGBruckStep[T any](pe *comm.PE, data []T, fresh bool) *agBruckStep[T] {
	s := comm.GetPooled[agBruckStep[T]](pe)
	*s = agBruckStep[T]{data: data, fresh: fresh}
	return s
}

// put releases the engine state only (fresh mode: the harvested
// arena/lens are caller-owned).
func (s *agBruckStep[T]) put(pe *comm.PE) {
	*s = agBruckStep[T]{}
	comm.PutPooled(pe, s)
}

// release recycles the pooled arena/lens and then the engine state
// (pooled mode, after the consumer is done reading).
func (s *agBruckStep[T]) release(pe *comm.PE) {
	*s.lensPtr = s.lens
	commbuf.For[int64]().Put(s.lensPtr)
	*s.arenaPtr = s.arena
	commbuf.For[T]().Put(s.arenaPtr)
	s.put(pe)
}

func (s *agBruckStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case 0:
			s.tag = pe.NextCollTag()
			if s.fresh {
				s.fpool = commbuf.For[bruckView[T]]()
				s.lens = make([]int64, 1, p)
				s.lens[0] = int64(len(s.data))
				s.arena = make([]T, 0, 2*len(s.data)+8)
			} else {
				s.wpool = commbuf.For[bruckMsg[T]]()
				s.lensPtr = commbuf.For[int64]().GetCap(p)
				s.lens = append(*s.lensPtr, int64(len(s.data)))
				s.arenaPtr = commbuf.For[T]().GetCap(2*len(s.data) + 8)
				s.arena = *s.arenaPtr
			}
			s.arena = append(s.arena, s.data...)
			s.d = 1
			s.phase = 1
		case 1:
			if s.d >= p {
				return nil // complete; the consumer harvests arena/lens
			}
			rank := pe.Rank()
			dst := (rank - s.d + p) % p
			src := (rank + s.d) % p
			cnt := min(s.d, p-s.d)
			var elems int64
			for _, l := range s.lens[:cnt] {
				elems += l
			}
			// One message per round: lengths ride along with the payload
			// (both metered), and a single send keeps the exchange
			// deadlock-free. Fresh mode ships capacity-capped views of the
			// held run (see bruckView); pooled mode ships owned copies.
			s.h = pe.IRecv(src, s.tag)
			if s.fresh {
				fp := s.fpool.Get(1)
				(*fp)[0] = bruckView[T]{lens: s.lens[:cnt:cnt], data: s.arena[:elems:elems]}
				pe.Send(dst, s.tag, fp, int64(cnt)+elems*WordsOf[T]())
			} else {
				lp := commbuf.For[int64]().Get(cnt)
				copy(*lp, s.lens[:cnt])
				dp := commbuf.For[T]().Get(int(elems))
				copy(*dp, s.arena[:elems])
				wp := s.wpool.Get(1)
				(*wp)[0] = bruckMsg[T]{lens: lp, data: dp}
				pe.Send(dst, s.tag, wp, int64(cnt)+elems*WordsOf[T]())
			}
			s.phase = 2
			if !s.h.Test() {
				return s.h
			}
		default:
			rxAny, _ := s.h.Wait()
			s.h = nil
			if s.fresh {
				rf := rxAny.(*[]bruckView[T])
				rx := (*rf)[0]
				s.lens = append(s.lens, rx.lens...)
				s.arena = append(s.arena, rx.data...)
				(*rf)[0] = bruckView[T]{}
				s.fpool.Put(rf)
			} else {
				rw := rxAny.(*[]bruckMsg[T])
				rx := (*rw)[0]
				s.lens = append(s.lens, (*rx.lens)...)
				s.arena = append(s.arena, (*rx.data)...)
				commbuf.For[int64]().Put(rx.lens)
				commbuf.For[T]().Put(rx.data)
				(*rw)[0] = bruckMsg[T]{}
				s.wpool.Put(rw)
			}
			s.d <<= 1
			s.phase = 1
		}
	}
}

// allGatherConcatStep — see AllGatherConcatStep.
type allGatherConcatStep[T any] struct {
	data []T
	out  func([]T)
	eng  *agBruckStep[T]
}

// AllGatherConcatStep is the continuation form of AllGatherConcat: out
// receives every PE's slice concatenated in rank order, as a borrowed
// pooled buffer valid only during the call (the blocking form's result
// is caller-owned instead). Steady-state allocation-free.
func AllGatherConcatStep[T any](pe *comm.PE, data []T, out func([]T)) comm.Stepper {
	s := comm.GetPooled[allGatherConcatStep[T]](pe)
	*s = allGatherConcatStep[T]{data: data, out: out}
	return s
}

func (s *allGatherConcatStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	if p == 1 {
		out, data := s.out, s.data
		*s = allGatherConcatStep[T]{}
		comm.PutPooled(pe, s)
		if out != nil {
			out(data)
		}
		return nil
	}
	if s.eng == nil {
		s.eng = newAGBruckStep(pe, s.data, false)
	}
	if h := s.eng.Step(pe); h != nil {
		return h
	}
	arena, lens := s.eng.arena, s.eng.lens
	// Rotate into rank order (see AllGatherConcat) inside a pooled buffer.
	i0 := (p - pe.Rank()) % p
	var off0 int64
	for _, l := range lens[:i0] {
		off0 += l
	}
	rotPtr := commbuf.For[T]().Get(len(arena))
	rot := *rotPtr
	n := copy(rot, arena[off0:])
	copy(rot[n:], arena[:off0])
	out := s.out
	eng := s.eng
	*s = allGatherConcatStep[T]{}
	comm.PutPooled(pe, s)
	if out != nil {
		out(rot)
	}
	commbuf.For[T]().Put(rotPtr)
	eng.release(pe)
	return nil
}

// ---------------------------------------------------------------------------
// Direct all-to-all
// ---------------------------------------------------------------------------

// allToAllStep — see AllToAllStep.
type allToAllStep[T any] struct {
	parts [][]T
	visit func(src int, part []T)
	pool  *commbuf.Pool[T]
	tag   comm.Tag
	i     int
	h     *comm.RecvHandle
	phase int
}

// AllToAllStep is the continuation form of AllToAll: parts[i] reaches PE
// i, and visit observes each received part — the own part first, then
// the staggered sources in exchange order. Unlike the blocking form's
// per-sender aliasing, visited parts are pooled receiver-side copies
// valid only during the call (the ownership-transfer framing that makes
// the stepper allocation-free); the measured words and startups are
// identical.
func AllToAllStep[T any](pe *comm.PE, parts [][]T, visit func(src int, part []T)) comm.Stepper {
	s := comm.GetPooled[allToAllStep[T]](pe)
	*s = allToAllStep[T]{parts: parts, visit: visit}
	return s
}

func (s *allToAllStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	rank := pe.Rank()
	for {
		switch s.phase {
		case 0:
			if len(s.parts) != p {
				panic(fmt.Sprintf("coll: AllToAll needs %d parts, got %d", p, len(s.parts)))
			}
			if s.visit != nil {
				s.visit(rank, s.parts[rank])
			}
			if p == 1 {
				s.phase = 3
				continue
			}
			s.pool = commbuf.For[T]()
			s.tag = pe.NextCollTag()
			s.i = 1
			s.phase = 1
		case 1:
			if s.i >= p {
				s.phase = 3
				continue
			}
			dst := (rank + s.i) % p
			src := (rank - s.i + p) % p
			s.h = pe.IRecv(src, s.tag)
			sendCopy(pe, s.pool, dst, s.tag, s.parts[dst])
			s.phase = 2
			if !s.h.Test() {
				return s.h
			}
		case 2:
			rxAny, _ := s.h.Wait()
			s.h = nil
			rx := rxAny.(*[]T)
			if s.visit != nil {
				s.visit((rank-s.i+p)%p, *rx)
			}
			s.pool.Put(rx)
			s.i++
			s.phase = 1
		default:
			*s = allToAllStep[T]{}
			comm.PutPooled(pe, s)
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Scalar broadcast
// ---------------------------------------------------------------------------

// broadcastScalarStep — see BroadcastScalarStep.
type broadcastScalarStep[T any] struct {
	root  int
	v     T
	out   func(T)
	pool  *commbuf.Pool[T]
	tag   comm.Tag
	vr    int
	mask  int
	h     *comm.RecvHandle
	phase int
	held  bool // driven by the blocking BroadcastScalar, which harvests and releases
}

// BroadcastScalarStep is the continuation form of BroadcastScalar: the
// binomial tree on pooled one-element buffers, identical wire schedule.
func BroadcastScalarStep[T any](pe *comm.PE, root int, v T, out func(T)) comm.Stepper {
	s := comm.GetPooled[broadcastScalarStep[T]](pe)
	*s = broadcastScalarStep[T]{root: root, v: v, out: out}
	return s
}

func (s *broadcastScalarStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
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
				rx := rxAny.(*[]T)
				s.v = (*rx)[0]
				s.pool.Put(rx)
			}
			s.phase = 2
		case 2:
			w := WordsOf[T]()
			for s.mask >>= 1; s.mask > 0; s.mask >>= 1 {
				child := s.vr | s.mask
				if child < p && child != s.vr {
					b := s.pool.Get(1)
					(*b)[0] = s.v
					pe.Send((child+s.root)%p, s.tag, b, w)
				}
			}
			s.phase = 3
		default:
			if s.held {
				return nil
			}
			out, v := s.out, s.v
			*s = broadcastScalarStep[T]{}
			comm.PutPooled(pe, s)
			if out != nil {
				out(v)
			}
			return nil
		}
	}
}
