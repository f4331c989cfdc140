// Package bnb is a distributed best-first branch-and-bound driver on top
// of the bulk-parallel priority queue — the application Section 5 of the
// paper uses to motivate flexible batch sizes: "In iteration i of its main
// loop, it deletes the smallest k_i = O(p) elements from the queue,
// expands these nodes in parallel, and inserts newly generated elements."
//
// Newly generated nodes are inserted into the *local* queue (the
// communication-efficient property: a typical computation inserts far
// more nodes than it removes, and local insertion makes those free),
// while deleteMin* keeps every PE working on globally best-first nodes.
package bnb

import (
	"math"

	"commtopk/internal/bpq"
	"commtopk/internal/coll"
	"commtopk/internal/comm"
)

// Problem defines a minimization branch-and-bound search over nodes of
// type N. Bounds must be admissible (never exceed the true best objective
// reachable from the node) for the search to be exact.
type Problem[N any] interface {
	// Root returns the initial node.
	Root() N
	// Expand returns the children of a (non-terminal) node.
	Expand(n N) []N
	// Bound returns a lower bound on any objective reachable from n.
	Bound(n N) float64
	// Solution returns (objective, true) if n is a complete solution.
	Solution(n N) (float64, bool)
}

// Result summarizes a finished search.
type Result[N any] struct {
	// Objective is the optimal objective value (+Inf if no solution).
	Objective float64
	// Best is the optimal node on the PE that found it; valid where
	// Found is true (exactly one PE).
	Best N
	// Found reports whether this PE holds the optimal node.
	Found bool
	// Expanded is the global number of expanded nodes (the paper's K).
	Expanded int64
	// Iterations is the number of deleteMin* rounds.
	Iterations int
}

// PrioFromFloat maps a float64 to a uint32 whose unsigned order matches
// the float order (sign-flip trick), rounding *down* so that a node's
// encoded priority never exceeds its true bound — guaranteeing the
// termination test errs toward extra work, never toward premature stops.
func PrioFromFloat(f float64) uint32 {
	f32 := float32(f)
	if float64(f32) > f {
		f32 = math.Nextafter32(f32, float32(math.Inf(-1)))
	}
	u := math.Float32bits(f32)
	if u&0x80000000 != 0 {
		return ^u
	}
	return u | 0x80000000
}

// FloatFromPrio inverts PrioFromFloat (up to the downward rounding).
func FloatFromPrio(u uint32) float64 {
	if u&0x80000000 != 0 {
		return float64(math.Float32frombits(u &^ 0x80000000))
	}
	return float64(math.Float32frombits(^u))
}

// Solve runs the distributed search. Collective: every PE must call it
// with the same problem and seed. The returned Expanded/Objective/
// Iterations agree on all PEs; Found is true on exactly one PE (if a
// solution exists), whose Best holds the optimum. Each iteration
// deletes a flexible batch of k_i ∈ [p, 4p] nodes — the paper's
// k_i = O(p).
func Solve[N any](pe *comm.PE, prob Problem[N], seed int64) Result[N] {
	p, rank := pe.P(), pe.Rank()
	s := &search[N]{pe: pe, prob: prob, q: bpq.New[uint64](pe, seed), incumbent: math.Inf(1)}
	root := prob.Root()
	if v, ok := prob.Solution(root); ok {
		// Every PE sees the same root; rank 0 claims it.
		res := Result[N]{Objective: v, Found: rank == 0}
		if res.Found {
			res.Best = root
		}
		return res
	}
	if rank == 0 {
		s.push(root, prob.Bound(root))
	}
	var iter int
	for {
		iter++
		globalInc := coll.AllReduceScalar(pe, s.incumbent, math.Min)
		minKey, ok := s.q.PeekMin()
		// Downward-rounded priorities make this prune-or-stop test safe.
		if !ok || FloatFromPrio(uint32(minKey>>32)) >= globalInc {
			break
		}
		batch, _ := s.q.DeleteMinFlexible(int64(p), 4*int64(p))
		s.expand(batch, globalInc)
	}
	res := Result[N]{Objective: coll.AllReduceScalar(pe, s.incumbent, math.Min), Iterations: iter}
	// Exactly one PE claims the optimum (lowest rank among holders).
	holder := int64(p)
	if s.found && s.incumbent == res.Objective {
		holder = int64(rank)
	}
	holder = coll.AllReduceScalar(pe, holder, minI64)
	res.Expanded = coll.SumAll(pe, s.expanded)
	if s.found && int64(rank) == holder {
		res.Best, res.Found = s.best, true
	}
	return res
}

func minI64(a, b int64) int64 { return min(a, b) }

// search is one PE's share of a running search: its local queue, the
// nodes behind the queue's keys, and its incumbent.
//
// The node store is a slice: the seq stamp baked into a queue key by
// bpq.MakeUnique is the node's slot index, and slots of expanded nodes
// are recycled through a free list, so memory is bounded by the peak
// number of live nodes and lookups are a shift and an index — no
// hashing, no map iteration, no nondeterministic expansion order
// anywhere on the path. Slot reuse is safe for key uniqueness: a slot is
// freed only when its key has left the queue, and two live entries can
// never share a slot, so (prio, slot·P + rank) collides only with
// already-deleted keys — which the treap no longer contains.
type search[N any] struct {
	pe    *comm.PE
	prob  Problem[N]
	q     *bpq.Queue[uint64]
	nodes []N
	free  []uint32

	incumbent float64
	best      N
	found     bool
	expanded  int64
}

// push stores n in a free slot and queues it under its bound.
func (s *search[N]) push(n N, bound float64) {
	var slot uint32
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
		s.nodes[slot] = n
	} else {
		slot = uint32(len(s.nodes))
		s.nodes = append(s.nodes, n)
	}
	s.q.Insert(bpq.MakeUnique(PrioFromFloat(bound), slot, s.pe.Rank(), s.pe.P()))
}

// expand processes this PE's share of a deleteMin* batch: slot-decoded
// node fetch, prune against the round's global incumbent, expansion and
// local re-insertion of surviving children.
func (s *search[N]) expand(batch []uint64, globalInc float64) {
	p, rank := uint32(s.pe.P()), uint32(s.pe.Rank())
	var zero N
	for _, key := range batch {
		low := uint32(key)
		if low%p != rank {
			panic("bnb: batch key was not stamped by this PE")
		}
		slot := low / p
		n := s.nodes[slot]
		s.nodes[slot] = zero
		s.free = append(s.free, slot)
		if FloatFromPrio(uint32(key>>32)) >= globalInc {
			continue // pruned: bound can no longer beat the incumbent
		}
		s.expanded++
		for _, c := range s.prob.Expand(n) {
			if v, ok := s.prob.Solution(c); ok {
				if v < s.incumbent {
					s.incumbent, s.best, s.found = v, c, true
				}
				continue
			}
			if b := s.prob.Bound(c); b < s.incumbent {
				s.push(c, b)
			}
		}
	}
}

// SolveSequential is the single-threaded best-first reference (the
// paper's m in K = m + O(hp)): same problem interface, plain binary heap.
func SolveSequential[N any](prob Problem[N]) (objective float64, best N, found bool, expanded int64) {
	type entry struct {
		bound float64
		node  N
	}
	var heap []entry
	pushH := func(e entry) {
		heap = append(heap, e)
		i := len(heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if heap[parent].bound <= heap[i].bound {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	popH := func() entry {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && heap[l].bound < heap[smallest].bound {
				smallest = l
			}
			if r < len(heap) && heap[r].bound < heap[smallest].bound {
				smallest = r
			}
			if smallest == i {
				break
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
		return top
	}

	incumbent := math.Inf(1)
	root := prob.Root()
	if v, ok := prob.Solution(root); ok {
		return v, root, true, 0
	}
	pushH(entry{prob.Bound(root), root})
	for len(heap) > 0 {
		e := popH()
		if e.bound >= incumbent {
			break // best-first: everything else is worse
		}
		expanded++
		for _, c := range prob.Expand(e.node) {
			if v, ok := prob.Solution(c); ok {
				if v < incumbent {
					incumbent, best, found = v, c, true
				}
				continue
			}
			if b := prob.Bound(c); b < incumbent {
				pushH(entry{b, c})
			}
		}
	}
	return incumbent, best, found, expanded
}
