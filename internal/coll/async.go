package coll

import (
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// Continuation (Stepper) forms of the broadcast, the scalar collectives
// and the strided gather, for comm.Machine.RunAsync: the same protocols —
// same message schedule, same metered words, startups and modeled clock,
// pinned by the differential suite — expressed as resumable bodies. The
// scalar all-reduce and exclusive scan are no protocols of their own:
// they run the vector engines on a one-element accumulator. Where a
// blocking run holds a coroutine per PE (O(p) stacks), a stepper
// suspends as data and the scheduler's w workers keep driving: mid-run
// goroutine residency stays O(w). The vector/gather-shaped forms live in
// async_vec.go and async_route.go.
//
// Each XxxStep factory returns a single-use Stepper for one PE; results
// are delivered through the out callback (nil to discard). Compose
// multi-collective bodies with comm.Seq / comm.SeqP, and reuse the same
// stepper under a blocking body via comm.RunSteps — one implementation,
// both execution modes. Blocking forms that must not allocate a result
// closure (Broadcast, BroadcastScalar, and AllReduceScalar and ExScanSum
// through runScalar) set the state's held flag instead: the final Step
// then leaves the state alone, and the blocking form reads the result
// out of it and releases it.
//
// # State pooling
//
// Every stepper's state struct is drawn from the PE's typed freelist
// (comm.GetPooled) and released back when the protocol completes, so a
// continuation body rebuilt every op allocates nothing in steady state —
// the property that makes RunAsync dispatch cost match blocking Run at
// p = 131072, where per-op stepper garbage (~1.2 KB/PE) otherwise feeds
// the GC ~150 MB per collectives op. The lifecycle contract: a factory
// fully reinitializes the popped struct; the final Step clears
// reference-holding fields, releases the struct, then invokes out; a
// completed stepper must never be stepped again (comm.Seq and RunAsync
// both guarantee this). Guarded by the AllocsPerRun tests in
// async_alloc_test.go.

// broadcastStep — see BroadcastStep.
type broadcastStep[T any] struct {
	root  int
	data  []T
	out   func([]T)
	tag   comm.Tag
	vr    int
	mask  int
	boxed any
	h     *comm.RecvHandle
	phase int
	held  bool // driven by the blocking Broadcast, which harvests and releases
}

// BroadcastStep is the continuation form of Broadcast: root's data
// reaches every PE along the binomial tree; out receives the (shared,
// read-only) result slice.
func BroadcastStep[T any](pe *comm.PE, root int, data []T, out func([]T)) comm.Stepper {
	s := comm.GetPooled[broadcastStep[T]](pe)
	*s = broadcastStep[T]{root: root, data: data, out: out}
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
				rx, _ := s.h.Wait()
				s.boxed = rx
				s.data = rx.([]T)
				s.h = nil
			} else {
				s.boxed = s.data
			}
			s.phase = 2
		case 2:
			words := sliceWords(s.data)
			for s.mask >>= 1; s.mask > 0; s.mask >>= 1 {
				child := s.vr | s.mask
				if child < p && child != s.vr {
					pe.Send((child+s.root)%p, s.tag, s.boxed, words)
				}
			}
			s.phase = 3
		default:
			if s.held {
				return nil
			}
			out, data := s.out, s.data
			*s = broadcastStep[T]{}
			comm.PutPooled(pe, s)
			if out != nil {
				out(data)
			}
			return nil
		}
	}
}

// scalarStep is a scalar collective: a vector engine run on a
// one-element accumulator. The all-reduce is allReduceAccStep and the
// exclusive scan is the exclusive inScanStep, so each protocol has one
// implementation and the scalar forms ship exactly the one-element copies
// the vector forms would.
type scalarStep[T any] struct {
	// buf[0] is the accumulator, buf[1] the exclusive scan's identity
	// (the zero value). Both live in the pooled state: nothing allocates
	// per op.
	buf  [2]T
	eng  comm.Stepper
	out  func(T)
	held bool // driven by a blocking form, which harvests buf[0] and releases
}

func newScalarStep[T any](pe *comm.PE, v T, out func(T)) *scalarStep[T] {
	s := comm.GetPooled[scalarStep[T]](pe)
	*s = scalarStep[T]{out: out}
	s.buf[0] = v
	return s
}

func newAllReduceScalar[T any](pe *comm.PE, v T, op func(a, b T) T, out func(T)) *scalarStep[T] {
	s := newScalarStep(pe, v, out)
	s.eng = newAllReduceAccStep(pe, s.buf[:1:1], op, nil)
	return s
}

func newExScanSum[T int | int64 | float64 | uint64](pe *comm.PE, v T, out func(T)) *scalarStep[T] {
	s := newScalarStep(pe, v, out)
	s.eng = newInScanStep(pe, s.buf[:1:1], opsOf[T](pe).add, s.buf[1:], true, nil)
	return s
}

// AllReduceScalarStep is the continuation form of AllReduceScalar: the
// all-reduce engine on one element, which always takes the
// recursive-doubling path.
func AllReduceScalarStep[T any](pe *comm.PE, v T, op func(a, b T) T, out func(T)) comm.Stepper {
	return newAllReduceScalar(pe, v, op, out)
}

// ExScanSumStep is the continuation form of ExScanSum: the exclusive
// vector scan on one element with identity 0.
func ExScanSumStep[T int | int64 | float64 | uint64](pe *comm.PE, v T, out func(T)) comm.Stepper {
	return newExScanSum(pe, v, out)
}

// BarrierStep is the continuation form of Barrier (a zero-word
// all-reduce, like the blocking Barrier).
func BarrierStep(pe *comm.PE) comm.Stepper {
	return AllReduceScalarStep(pe, int64(0), func(a, b int64) int64 { return a + b }, nil)
}

func (s *scalarStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	if s.eng != nil {
		if h := s.eng.Step(pe); h != nil {
			return h
		}
		s.eng = nil
	}
	if s.held {
		return nil
	}
	out, v := s.out, s.buf[0]
	s.release(pe)
	if out != nil {
		out(v)
	}
	return nil
}

func (s *scalarStep[T]) release(pe *comm.PE) {
	*s = scalarStep[T]{}
	comm.PutPooled(pe, s)
}

// runScalar drives s with blocking waits and returns its result.
func runScalar[T any](pe *comm.PE, s *scalarStep[T]) T {
	s.held = true
	comm.RunSteps(pe, s)
	v := s.buf[0]
	s.release(pe)
	return v
}

// GatherStrided delivers, to every PE, the blocks of its s = samples
// strided sources {(rank + 1 + j·⌈(p−1)/s⌉) mod p : j < s} — a sampled
// gather: the suite's answer to the p²·m aggregate movement that caps
// full all-gathers on one host. Every PE still sends and receives
// exactly s blocks (the sampling pattern is symmetric), so the measured
// volume is s·m words and s startups per PE while per-PE memory stays
// O(m) — blocks are visited, never materialized. visit observes views
// of other PEs' memory (in-process read-only, like AllGatherv's result).
// The exchange is round-staggered like AllToAll, so in-flight messages
// stay O(p) rather than O(p·s).
func GatherStrided[T any](pe *comm.PE, data []T, samples int, visit func(src int, block []T)) {
	comm.RunSteps(pe, GatherStridedStep(pe, data, samples, visit))
}

// gatherStridedStep — see GatherStridedStep.
type gatherStridedStep[T any] struct {
	data    []T
	samples int
	visit   func(src int, block []T)
	pool    *commbuf.Pool[T]
	tag     comm.Tag
	stride  int
	s       int
	i       int
	h       *comm.RecvHandle
	inited  bool
}

// GatherStridedStep is the continuation form of GatherStrided (and its
// implementation — the blocking form drives the same stepper).
func GatherStridedStep[T any](pe *comm.PE, data []T, samples int, visit func(src int, block []T)) comm.Stepper {
	s := comm.GetPooled[gatherStridedStep[T]](pe)
	*s = gatherStridedStep[T]{data: data, samples: samples, visit: visit}
	return s
}

func (s *gatherStridedStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	if !s.inited {
		s.inited = true
		if p == 1 || s.samples < 1 {
			s.s = 0
			return s.finish(pe)
		}
		s.s = min(s.samples, p-1)
		s.stride = max((p-1)/s.s, 1)
		s.pool = commbuf.For[T]()
		s.tag = pe.NextCollTag()
	}
	rank := pe.Rank()
	for s.i < s.s {
		off := 1 + s.i*s.stride
		if s.h == nil {
			s.h = pe.IRecv((rank+off)%p, s.tag)
			// My block goes to the PE that samples me at this offset, as a
			// pooled copy with ownership transfer (a by-reference slice send
			// would box the header — one heap allocation per hop — and the
			// stepper is pinned allocation-free).
			sendCopy(pe, s.pool, (rank-off+p)%p, s.tag, s.data)
			if !s.h.Test() {
				return s.h
			}
		}
		rxAny, _ := s.h.Wait()
		s.h = nil
		rx := rxAny.(*[]T)
		s.visit((rank+off)%p, *rx)
		s.pool.Put(rx)
		s.i++
	}
	return s.finish(pe)
}

func (s *gatherStridedStep[T]) finish(pe *comm.PE) *comm.RecvHandle {
	*s = gatherStridedStep[T]{}
	comm.PutPooled(pe, s)
	return nil
}
