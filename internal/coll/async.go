package coll

import (
	"commtopk/internal/comm"
)

// Continuation (Stepper) forms of the broadcast and the scalar
// collectives, for comm.Machine.RunAsync: the same protocols —
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
// multi-collective bodies with comm.SeqP, and reuse the same
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
// completed stepper must never be stepped again (comm.SeqP and RunAsync
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
// exclusive scan is exScanStep, so each protocol has one
// implementation and the scalar forms ship exactly the one-element copies
// the vector forms would.
type scalarStep[T any] struct {
	// buf is the accumulator; it lives in the pooled state, so nothing
	// allocates per op.
	buf  [1]T
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
	s.eng = newAllReduceAccStep(pe, s.buf[:], op, nil)
	return s
}

func newExScanSum[T int | int64 | float64 | uint64](pe *comm.PE, v T, out func(T)) *scalarStep[T] {
	s := newScalarStep(pe, v, out)
	s.eng = newExScanStep(pe, s.buf[:], opsOf[T](pe).add, nil)
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
