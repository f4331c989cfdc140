package bpq

import (
	"cmp"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/sel"
)

// Continuation forms of the queue's collective operations. The pattern
// matches sel's steppers: pooled per-PE state, the selection engine run
// as a sub-stepper in the cur slot, result-delivery closures cached on
// the pooled object. The blocking DeleteMin/DeleteMinFlexible/PeekMin
// drive these through comm.RunSteps — one implementation, both execution
// modes, bit-identical results, RNG consumption and metered schedule.

// tagged mirrors sel's optional-value reduction carrier (the sentinel
// for "this PE's queue is empty").
type tagged[K any] struct {
	Has bool
	Val K
}

func minTagged[K cmp.Ordered](a, b tagged[K]) tagged[K] {
	if !a.Has {
		return b
	}
	if !b.Has {
		return a
	}
	if b.Val < a.Val {
		return b
	}
	return a
}

func addInt64(a, b int64) int64 { return a + b }

// pqOps caches the generic operator func values per PE: taking the func
// value of a generic function materializes a dictionary closure, which
// escapes into the collective call and costs one heap allocation per
// operation unless cached (the coll.opsOf discipline).
type pqOps[K cmp.Ordered] struct {
	minTag func(a, b tagged[K]) tagged[K]
}

func opsOf[K cmp.Ordered](pe *comm.PE) *pqOps[K] {
	o := comm.GetSingleton[pqOps[K]](pe)
	if o.minTag == nil {
		o.minTag = minTagged[K]
	}
	return o
}

// GlobalLenStep is the continuation form of GlobalLen: out (optional)
// receives the total queue size on every PE.
func (q *Queue[K]) GlobalLenStep(out func(int64)) comm.Stepper {
	return coll.AllReduceScalarStep(q.pe, int64(q.tree.Len()), addInt64, out)
}

// peekMinStep phases.
const (
	pmphInit = iota
	pmphWait
	pmphDone
)

type peekMinStep[K cmp.Ordered] struct {
	q    *Queue[K]
	out  func(K, bool)
	self bool
	res  tagged[K]

	cur   comm.Stepper
	onTag func(tagged[K])
	phase int
}

func newPeekMinStep[K cmp.Ordered](q *Queue[K], out func(K, bool), self bool) *peekMinStep[K] {
	st := comm.GetPooled[peekMinStep[K]](q.pe)
	st.q, st.out, st.self = q, out, self
	st.phase = pmphInit
	st.cur = nil
	if st.onTag == nil {
		st.onTag = func(v tagged[K]) { st.res = v }
	}
	return st
}

// PeekMinStep is the continuation form of PeekMin: out (optional)
// receives the globally smallest key, ok=false when the queue is empty.
func (q *Queue[K]) PeekMinStep(out func(min K, ok bool)) comm.Stepper {
	return newPeekMinStep(q, out, true)
}

func (st *peekMinStep[K]) release(pe *comm.PE) {
	st.q, st.out, st.cur = nil, nil, nil
	st.res = tagged[K]{}
	comm.PutPooled(pe, st)
}

func (st *peekMinStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if st.cur != nil {
			if h := st.cur.Step(pe); h != nil {
				return h
			}
			st.cur = nil
		}
		switch st.phase {
		case pmphInit:
			var c tagged[K]
			if v, ok := st.q.tree.Min(); ok {
				c = tagged[K]{true, v}
			}
			st.cur = coll.AllReduceScalarStep(pe, c, opsOf[K](pe).minTag, st.onTag)
			st.phase = pmphWait
		case pmphWait:
			st.phase = pmphDone
			if st.self {
				out, res := st.out, st.res
				st.release(pe)
				if out != nil {
					out(res.Val, res.Has)
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// deleteMinStep phases.
const (
	dmphInit    = iota // start the size sum
	dmphLenWait        // harvest the sums; empty, drain or start the selection
	dmphSelWait        // harvest the threshold; split off the batch
	dmphDone
)

type deleteMinStep[K cmp.Ordered] struct {
	q          *Queue[K]
	kmin, kmax int64 // kmin == kmax: exact batch (DeleteMin semantics)
	flex       bool
	out        func([]K, K, int64)
	self       bool

	resBatch []K
	resV     K     // selection threshold (zero K on drain / empty)
	resN     int64 // realized batch size across all PEs

	// sizes is this PE's [queue length, prefix length min(k, length)] and
	// sums their global totals, one all-reduce for both (a flexible batch
	// sums the first word only). prefix holds the local prefix, ascending
	// — the exact selection's input (Appendix A) — and survives pooling.
	sizes, sums [2]int64
	prefix      []K
	cur         comm.Stepper
	onKth       func(K)
	onAms       func(sel.AMSResult[K])
	onKey       func(K) bool // Ascend callback filling prefix
	phase       int
}

func newDeleteMinStep[K cmp.Ordered](q *Queue[K], kmin, kmax int64, flex bool, out func([]K, K, int64), self bool) *deleteMinStep[K] {
	st := comm.GetPooled[deleteMinStep[K]](q.pe)
	st.q, st.kmin, st.kmax, st.flex, st.out, st.self = q, kmin, kmax, flex, out, self
	st.phase = dmphInit
	st.cur = nil
	if st.onKth == nil {
		st.onKth = func(v K) { st.resV = v }
		st.onAms = func(r sel.AMSResult[K]) { st.resV, st.resN = r.Threshold, r.Count }
		st.onKey = func(k K) bool {
			st.prefix = append(st.prefix, k)
			return int64(len(st.prefix)) < st.sizes[1]
		}
	}
	return st
}

// DeleteMinStep is the continuation form of DeleteMin: out (optional)
// receives this PE's share of the batch in ascending order, the agreed
// selection threshold (zero K when the queue drained or the batch is
// empty), and the realized global batch size.
func (q *Queue[K]) DeleteMinStep(k int64, out func(batch []K, threshold K, n int64)) comm.Stepper {
	return newDeleteMinStep(q, k, k, false, out, true)
}

// DeleteMinFlexibleStep is the continuation form of DeleteMinFlexible:
// the realized batch size n is chosen by the flexible selection in
// [kmin, kmax] (or the whole queue when fewer than kmin remain).
func (q *Queue[K]) DeleteMinFlexibleStep(kmin, kmax int64, out func(batch []K, threshold K, n int64)) comm.Stepper {
	return newDeleteMinStep(q, kmin, kmax, true, out, true)
}

func (st *deleteMinStep[K]) release(pe *comm.PE) {
	var zero K
	st.q, st.out, st.cur = nil, nil, nil
	st.resBatch = nil
	st.resV = zero
	clear(st.prefix) // keys may hold references
	st.prefix = st.prefix[:0]
	comm.PutPooled(pe, st)
}

func (st *deleteMinStep[K]) finish(pe *comm.PE, batch []K, v K, n int64) *comm.RecvHandle {
	st.resBatch, st.resV, st.resN = batch, v, n
	st.phase = dmphDone
	if st.self {
		out := st.out
		st.release(pe)
		if out != nil {
			out(batch, v, n)
		}
	}
	return nil
}

// drain empties the local tree, recycling every node into the arena and
// reseeding the priority stream — consuming the same q.rng draw the
// previous tree-replacement implementation did, so the RNG trajectory
// (and with it every later batch) is unchanged.
func (st *deleteMinStep[K]) drain() []K {
	q := st.q
	out := q.tree.Keys()
	q.tree.Recycle()
	q.tree.Reseed(int64(q.rng.Uint64()))
	return out
}

func (st *deleteMinStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if st.cur != nil {
			if h := st.cur.Step(pe); h != nil {
				return h
			}
			st.cur = nil
		}
		switch st.phase {
		case dmphInit:
			n := int64(st.q.tree.Len())
			st.sizes = [2]int64{n, min(n, max(st.kmax, 0))}
			w := len(st.sizes)
			if st.flex {
				w = 1
			}
			st.cur = coll.AllReduceIntoStep(pe, st.sums[:w], st.sizes[:w], addInt64, nil)
			st.phase = dmphLenWait
		case dmphLenWait:
			var zero K
			total := st.sums[0]
			if st.flex {
				if total == 0 || st.kmax <= 0 {
					return st.finish(pe, nil, zero, 0)
				}
				if st.kmin >= total || st.kmax >= total {
					return st.finish(pe, st.drain(), zero, total)
				}
				kmin := max(st.kmin, 1)
				st.cur = sel.AMSSelectNStep[K](pe, st.q.seq, total, kmin, st.kmax, st.q.rng, st.onAms)
			} else {
				if st.kmin <= 0 || total == 0 {
					return st.finish(pe, nil, zero, 0)
				}
				if st.kmin >= total {
					return st.finish(pe, st.drain(), zero, total)
				}
				// The batch is the k smallest of the union of the local
				// prefixes, whose size the sum has just delivered.
				st.resN = st.kmin
				if st.sizes[1] > 0 {
					st.q.tree.Ascend(st.onKey)
				}
				st.cur = sel.KthSortedStep[K](pe, st.prefix, st.sums[1], st.kmin, st.q.rng, st.onKth)
			}
			st.phase = dmphSelWait
		case dmphSelWait:
			// This PE's share is its keys ≤ the threshold; the batch slice
			// is the caller's and the only allocation.
			j := st.q.seq.CountLE(st.resV)
			return st.finish(pe, st.q.tree.PopSmallest(j, make([]K, 0, j)), st.resV, st.resN)
		default:
			return nil
		}
	}
}
