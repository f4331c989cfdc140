// Package bpq implements the communication-efficient bulk-parallel
// priority queue of Section 5: one local search tree per PE, insertions
// that are purely local (no elements ever move between PEs), and bulk
// deleteMin* realized by running the selection algorithms of Section 4
// directly on the search trees.
//
// Operation costs:
//
//	Insert          O(log n) local, zero communication
//	DeleteMin(k)    O(α log kp) expected (exact batch size): one 2-word
//	                size all-reduce, then Algorithm 1 on the first
//	                min(k, len) keys of every tree (Appendix A) — one
//	                binomial-tree round trip, 2(p−1) messages, per level
//	DeleteMinFlexible(k̲, k̄)  O(α log k̄p) expected when k̄−k̲ = Ω(k̄)
//	                (Algorithm 2, Theorem 5)
//
// Keys must be globally unique (the paper's standing assumption; compose
// a PE-id/sequence-number tie-break into the key as MakeUnique does).
package bpq

import (
	"cmp"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/sel"
	"commtopk/internal/treap"
	"commtopk/internal/xrand"
)

// Queue is one PE's handle of the distributed bulk priority queue. All
// PEs of the machine must create their handle with the same seed, and the
// collective operations (GlobalLen, DeleteMin, DeleteMinFlexible) must be
// entered by every PE.
type Queue[K cmp.Ordered] struct {
	pe   *comm.PE
	tree *treap.Tree[K]
	seq  sel.Seq[K] // treapSeq over tree, boxed once (the tree pointer is stable)
	rng  *xrand.RNG // per-PE stream (selection samples, AMS estimator deviates)
}

// New creates this PE's handle. seed must be identical on all PEs; the
// per-PE streams are decorrelated internally.
func New[K cmp.Ordered](pe *comm.PE, seed int64) *Queue[K] {
	q := &Queue[K]{
		pe:   pe,
		tree: treap.New[K](seed + int64(pe.Rank())*7919),
		rng:  xrand.NewPE(seed, pe.Rank()),
	}
	q.seq = treapSeq[K]{q.tree}
	return q
}

// Insert adds a key to the local queue — no communication, O(log n)
// (Section 5: "insertions simply go to the local queue"). Returns false
// if the key is already present locally.
func (q *Queue[K]) Insert(k K) bool { return q.tree.Insert(k) }

// InsertBulk inserts a batch locally and returns the number inserted.
func (q *Queue[K]) InsertBulk(ks []K) int { return q.tree.InsertBulk(ks) }

// LocalLen returns the number of elements held by this PE.
func (q *Queue[K]) LocalLen() int { return q.tree.Len() }

// GlobalLen returns the total queue size. Collective.
func (q *Queue[K]) GlobalLen() int64 {
	return coll.SumAll(q.pe, int64(q.tree.Len()))
}

// PeekMin returns the globally smallest key without removing it.
// Collective; ok is false when the queue is globally empty. The min
// operator is a per-PE singleton (see pqOps), so steady-state calls do
// not allocate.
func (q *Queue[K]) PeekMin() (K, bool) {
	st := newPeekMinStep(q, nil, false)
	comm.RunSteps(q.pe, st)
	res := st.res
	st.release(q.pe)
	return res.Val, res.Has
}

// treapSeq adapts the local search tree to the Seq interface of the
// selection algorithms — the Section 5 observation that selection needs
// only select-by-rank and rank-by-key, which the augmented tree provides
// in logarithmic time.
type treapSeq[K cmp.Ordered] struct{ t *treap.Tree[K] }

func (s treapSeq[K]) Len() int { return s.t.Len() }
func (s treapSeq[K]) At(i int) K {
	v, ok := s.t.Select(i)
	if !ok {
		panic("bpq: Select out of range")
	}
	return v
}
func (s treapSeq[K]) CountLess(v K) int { return s.t.Rank(v) }
func (s treapSeq[K]) CountLE(v K) int {
	r := s.t.Rank(v)
	if s.t.Contains(v) {
		r++
	}
	return r
}

// DeleteMin removes the k globally smallest elements and returns this
// PE's share of them in ascending order (the batch stays where it was
// stored — the owner-computes rule). If fewer than k elements remain, all
// are removed. Collective.
func (q *Queue[K]) DeleteMin(k int64) []K {
	st := newDeleteMinStep(q, k, k, false, nil, false)
	comm.RunSteps(q.pe, st)
	out := st.resBatch
	st.release(q.pe)
	return out
}

// DeleteMinFlexible removes the k globally smallest elements for some
// k ∈ [kmin, kmax] chosen by the flexible selection (Algorithm 2) and
// returns this PE's share plus the realized k. If fewer than kmin remain,
// everything is removed. Collective.
func (q *Queue[K]) DeleteMinFlexible(kmin, kmax int64) ([]K, int64) {
	st := newDeleteMinStep(q, kmin, kmax, true, nil, false)
	comm.RunSteps(q.pe, st)
	out, n := st.resBatch, st.resN
	st.release(q.pe)
	return out, n
}

// MakeUnique composes a priority quantized to 32 bits with a globally
// unique stamp so that distinct queue entries never share a key: the high
// word is the priority, the low word is seq·P + rank, which is unique as
// long as each PE stamps its insertions with its own ascending seq.
// Entries with equal priority are ordered by stamp — the paper's (v, x)
// tie-breaking trick.
func MakeUnique(prio uint32, seq uint32, rank, p int) uint64 {
	return uint64(prio)<<32 | (uint64(seq)*uint64(p)+uint64(rank))&0xffffffff
}
