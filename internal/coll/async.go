package coll

import (
	"commtopk/internal/comm"
)

// The continuation (Stepper) forms, for comm.Machine.RunAsync. A
// collective is a stepper only where a stepper composes it: sel's kthStep
// runs a selection level as ReduceConcatStep up and BroadcastVecStep
// down, and its lanes' private sums with AllReduceScalarStep; serve's
// popStep sums sizes with AllReduceIntoStep. Every other collective is
// straight-line blocking code (coll.go, route.go). The scalar all-reduce is no protocol of its
// own: it runs the vector engine (async_vec.go) on a one-element
// accumulator. Where a blocking run holds a coroutine per PE (O(p)
// stacks), a stepper suspends as data and the scheduler's w workers keep
// driving: mid-run goroutine residency stays O(w).
//
// Each XxxStep factory returns a single-use Stepper for one PE; results
// are delivered through the out callback (nil to discard). The blocking
// forms of these engines (AllReduce, AllReduceScalar, SumAll, Barrier,
// BroadcastScalar) drive them with comm.RunSteps — one implementation,
// both execution modes. Blocking forms that must not allocate a result
// closure (BroadcastScalar, and AllReduceScalar through runScalar) set
// the state's held flag instead: the final Step then leaves the state
// alone, and the blocking form reads the result out of it and releases
// it.
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

// scalarStep is the scalar all-reduce: the vector all-reduce engine run
// on a one-element accumulator, so the scalar form ships exactly the
// one-element copies the vector form would.
type scalarStep[T any] struct {
	// buf is the accumulator; it lives in the pooled state, so nothing
	// allocates per op.
	buf  [1]T
	eng  *allReduceAccStep[T]
	out  func(T)
	held bool // driven by a blocking form, which harvests buf[0] and releases
}

func newAllReduceScalar[T any](pe *comm.PE, v T, op func(a, b T) T, out func(T)) *scalarStep[T] {
	s := comm.GetPooled[scalarStep[T]](pe)
	*s = scalarStep[T]{out: out}
	s.buf[0] = v
	s.eng = newAllReduceAccStep(pe, s.buf[:], op, nil)
	return s
}

// AllReduceScalarStep is the continuation form of AllReduceScalar: the
// all-reduce engine on one element, which always takes the
// recursive-doubling path.
func AllReduceScalarStep[T any](pe *comm.PE, v T, op func(a, b T) T, out func(T)) comm.Stepper {
	return newAllReduceScalar(pe, v, op, out)
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
