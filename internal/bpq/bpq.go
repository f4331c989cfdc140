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
// The collective operations are straight-line blocking code, entered by
// every PE of an SPMD body; the selections they run are driven to
// completion with blocking waits (comm.RunSteps).
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
// collective operations (GlobalLen, PeekMin, DeleteMin,
// DeleteMinFlexible) must be entered by every PE.
type Queue[K cmp.Ordered] struct {
	pe   *comm.PE
	tree *treap.Tree[K]
	seq  sel.Seq[K] // treapSeq over tree, boxed once (the tree pointer is stable)
	rng  *xrand.RNG // per-PE stream: one draw per selection, one per drain
	// selRng is the stream a selection samples from (pivot samples, AMS
	// estimator deviates), reseeded before each one from one draw of rng:
	// how many values a selection draws then moves nothing after it.
	selRng xrand.RNG

	// Reused by every delete, so that a steady-state call allocates only
	// its batch: this PE's [queue length, prefix length min(k, length)]
	// and their global sums (one all-reduce for both; a flexible batch
	// sums the first word only), the ascending local prefix an exact
	// batch selects on (Appendix A), and the selection's threshold.
	sizes, sums [2]int64
	prefix      []K
	thr         K

	// Func values built once: taking the func value of a generic function
	// materializes a dictionary closure, which escapes into the collective
	// call and costs one heap allocation per operation unless cached (the
	// coll.opsOf discipline).
	minTag func(a, b tagged[K]) tagged[K]
	onKth  func(K)
	onKey  func(K) bool // Ascend callback filling prefix
}

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

// New creates this PE's handle. seed must be identical on all PEs; the
// per-PE streams are decorrelated internally.
func New[K cmp.Ordered](pe *comm.PE, seed int64) *Queue[K] {
	q := &Queue[K]{
		pe:     pe,
		tree:   treap.New[K](seed + int64(pe.Rank())*7919),
		rng:    xrand.NewPE(seed, pe.Rank()),
		minTag: minTagged[K],
	}
	q.seq = treapSeq[K]{q.tree}
	q.onKth = func(v K) { q.thr = v }
	q.onKey = func(k K) bool {
		q.prefix = append(q.prefix, k)
		return int64(len(q.prefix)) < q.sizes[1]
	}
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
// Collective; ok is false when the queue is globally empty. Steady-state
// calls do not allocate.
func (q *Queue[K]) PeekMin() (K, bool) {
	var c tagged[K]
	if v, ok := q.tree.Min(); ok {
		c = tagged[K]{true, v}
	}
	r := coll.AllReduceScalar(q.pe, c, q.minTag)
	return r.Val, r.Has
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
	batch, _, _ := q.deleteMin(k, k, false)
	return batch
}

// DeleteMinFlexible removes the k globally smallest elements for some
// k ∈ [kmin, kmax] chosen by the flexible selection (Algorithm 2) and
// returns this PE's share plus the realized k. If fewer than kmin remain,
// everything is removed. Collective.
func (q *Queue[K]) DeleteMinFlexible(kmin, kmax int64) ([]K, int64) {
	batch, _, n := q.deleteMin(kmin, kmax, true)
	return batch, n
}

// deleteMin is both deletes (flex false: the exact batch kmin == kmax).
// It returns this PE's share in ascending order, the agreed selection
// threshold (zero K when the queue drained or the batch is empty) and
// the realized global batch size.
func (q *Queue[K]) deleteMin(kmin, kmax int64, flex bool) (batch []K, threshold K, n int64) {
	local := int64(q.tree.Len())
	q.sizes = [2]int64{local, min(local, max(kmax, 0))}
	w := len(q.sizes)
	if flex {
		w = 1
	}
	comm.RunSteps(q.pe, coll.AllReduceIntoStep(q.pe, q.sums[:w], q.sizes[:w], addInt64, nil))
	total := q.sums[0]
	if flex {
		if total == 0 || kmax <= 0 {
			return nil, threshold, 0
		}
		if kmin >= total || kmax >= total {
			return q.drain(), threshold, total
		}
		r := sel.AMSSelectN(q.pe, q.seq, total, max(kmin, 1), kmax, q.selStream())
		q.thr, n = r.Threshold, r.Count
	} else {
		if kmin <= 0 || total == 0 {
			return nil, threshold, 0
		}
		if kmin >= total {
			return q.drain(), threshold, total
		}
		// The batch is the k smallest of the union of the local prefixes,
		// whose size the sum has just delivered.
		if q.sizes[1] > 0 {
			q.tree.Ascend(q.onKey)
		}
		comm.RunSteps(q.pe, sel.KthSortedStep[K](q.pe, q.prefix, q.sums[1], kmin, q.selStream(), q.onKth))
		clear(q.prefix) // keys may hold references
		q.prefix = q.prefix[:0]
		n = kmin
	}
	// This PE's share is its keys ≤ the threshold; the batch slice is the
	// caller's and the only allocation.
	threshold = q.thr
	j := q.seq.CountLE(threshold)
	return q.tree.PopSmallest(j, make([]K, 0, j)), threshold, n
}

// selStream reseeds the selection stream from one draw of q.rng and
// returns it.
func (q *Queue[K]) selStream() *xrand.RNG {
	q.selRng.SeedPE(int64(q.rng.Uint64()), q.pe.Rank())
	return &q.selRng
}

// drain empties the local tree, recycling every node into the arena, and
// reseeds its priority stream from one q.rng draw: the draw is part of the
// queue's RNG trajectory, which every later batch depends on.
func (q *Queue[K]) drain() []K {
	out := q.tree.Keys()
	q.tree.Recycle()
	q.tree.Reseed(int64(q.rng.Uint64()))
	return out
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
