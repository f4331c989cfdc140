package bpq

import (
	"fmt"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
)

// churnResult is everything one schedule produces on one machine: the
// per-round, per-rank batches plus the realized sizes and final state.
type churnResult struct {
	batches [][][]uint64 // [round][rank]
	ns      [][]int64    // [round][rank] realized size as reported
	lens    []int64      // GlobalLen after each round
	stats   comm.Stats
}

// runChurn executes the same insert/delete schedule on a fresh set of
// queue handles over m, one blocking run per insert, delete and length
// query.
func runChurn(m *comm.Machine, p int) churnResult {
	const perPE = 64
	qs := make([]*Queue[uint64], p)
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		qs[r] = New[uint64](pe, 4242)
		keys := make([]uint64, perPE)
		for i := range keys {
			keys[i] = uint64(i*p + r)
		}
		qs[r].InsertBulk(keys)
	})
	var res churnResult
	next := perPE // next fresh key block, shared by all rounds
	// Rounds: exact batch, flexible batch, exact again after refill, and
	// a final drain (k far above the remaining total).
	type round struct {
		kmin, kmax int64
		flex       bool
		refill     int
	}
	rounds := []round{
		{kmin: int64(p * perPE / 4), kmax: int64(p * perPE / 4)},
		{kmin: int64(p * 4), kmax: int64(p * 16), flex: true, refill: 16},
		{kmin: 3, kmax: 3, refill: 8},
		{kmin: int64(10 * p * perPE), kmax: int64(10 * p * perPE)},
	}
	for _, rd := range rounds {
		if rd.refill > 0 {
			m.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				keys := make([]uint64, rd.refill)
				for i := range keys {
					keys[i] = uint64((next+i)*p + r)
				}
				qs[r].InsertBulk(keys)
			})
			next += rd.refill
		}
		batches := make([][]uint64, p)
		ns := make([]int64, p)
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			batches[r], _, ns[r] = qs[r].deleteMin(rd.kmin, rd.kmax, rd.flex)
		})
		lens := make([]int64, p)
		m.MustRun(func(pe *comm.PE) {
			lens[pe.Rank()] = qs[pe.Rank()].GlobalLen()
		})
		res.batches = append(res.batches, batches)
		res.ns = append(res.ns, ns)
		res.lens = append(res.lens, lens[0])
	}
	res.stats = m.Stats()
	return res
}

// Deletes must be bit-identical — batches, realized sizes, and metered
// statistics — on production machines (including w < p) and on the
// reference executor, whose seeded delivery order carries the same
// blocking bodies' messages.
func TestDeleteMinMatchesAcrossExecutors(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			mc := simexec.Reference(p)
			ref := runChurn(mc, p)
			for _, w := range []int{0, 1, 4} {
				cfg := comm.DefaultConfig(p)
				cfg.Workers = w
				m := comm.NewMachine(cfg)
				got := runChurn(m, p)
				for rd := range ref.batches {
					for r := 0; r < p; r++ {
						if !slices.Equal(got.batches[rd][r], ref.batches[rd][r]) {
							t.Errorf("w=%d round %d rank %d: production batch %v vs reference %v",
								w, rd, r, got.batches[rd][r], ref.batches[rd][r])
						}
						if got.ns[rd][r] != ref.ns[rd][r] {
							t.Errorf("w=%d round %d rank %d: realized n %d vs %d",
								w, rd, r, got.ns[rd][r], ref.ns[rd][r])
						}
					}
					if got.lens[rd] != ref.lens[rd] {
						t.Errorf("w=%d round %d: GlobalLen %d vs %d", w, rd, got.lens[rd], ref.lens[rd])
					}
				}
				if got.stats != ref.stats {
					t.Errorf("w=%d: stats diverge:\n  reference: %+v\n  production: %+v",
						w, ref.stats, got.stats)
				}
				m.Close()
			}
		})
	}
}

// An exact delete agrees on its threshold: every returned key is ≤ it
// and the batch sizes sum to the reported n on every PE.
func TestDeleteMinThresholdContract(t *testing.T) {
	const p, perPE = 8, 32
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	qs := make([]*Queue[uint64], p)
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		qs[r] = New[uint64](pe, 7)
		keys := make([]uint64, perPE)
		for i := range keys {
			keys[i] = uint64(i*p + r)
		}
		qs[r].InsertBulk(keys)
	})
	k := int64(p * perPE / 3)
	batches := make([][]uint64, p)
	vs := make([]uint64, p)
	ns := make([]int64, p)
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		batches[r], vs[r], ns[r] = qs[r].deleteMin(k, k, false)
	})
	var got int64
	for r := 0; r < p; r++ {
		if vs[r] != vs[0] || ns[r] != k {
			t.Fatalf("rank %d: (threshold, n) = (%d, %d), want (%d, %d)", r, vs[r], ns[r], vs[0], k)
		}
		for _, key := range batches[r] {
			if key > vs[r] {
				t.Fatalf("rank %d: batch key %d above threshold %d", r, key, vs[r])
			}
		}
		got += int64(len(batches[r]))
	}
	if got != k {
		t.Fatalf("batch sizes sum to %d, want %d", got, k)
	}
}

// PeekMin must not allocate in steady state: the reduction operator is
// built once per queue, not a fresh funcval per call (which would cost
// one heap allocation per PeekMin per PE).
func TestPeekMinZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p, iters = 8, 50
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	qs := make([]*Queue[uint64], p)
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		qs[r] = New[uint64](pe, 13)
		for i := 0; i < 64; i++ {
			qs[r].Insert(uint64(i*p + r))
		}
	})
	run := func() {
		m.MustRun(func(pe *comm.PE) {
			q := qs[pe.Rank()]
			for i := 0; i < iters; i++ {
				if _, ok := q.PeekMin(); !ok {
					t.Error("PeekMin reported empty on a full queue")
				}
			}
		})
	}
	base := testing.AllocsPerRun(5, func() { m.MustRun(func(pe *comm.PE) {}) })
	for i := 0; i < 3; i++ {
		run() // warm the pools
	}
	peek := testing.AllocsPerRun(5, run)
	// iters×p funcval allocations before the fix; only run-harness noise now.
	if peek-base > float64(2*p) {
		t.Errorf("PeekMin loop allocates %.1f/run over the %.1f harness baseline (budget %d)",
			peek, base, 2*p)
	}
}

// DeleteMin must not allocate in steady state beyond the batch it hands
// back (one slice per PE per op): the size all-reduce, the prefix read,
// the selection and the split run on the queue's buffers, pooled
// selection state and the treap arena.
func TestDeleteMinZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p, iters, k = 8, 50, 4 * 8
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	qs := make([]*Queue[uint64], p)
	m.MustRun(func(pe *comm.PE) {
		qs[pe.Rank()] = New[uint64](pe, 17)
	})
	// refill puts back what one run removes — strided keys, so every PE's
	// share of a batch is k/p — and is part of the baseline too.
	next := 0
	refill := func() {
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			for i := 0; i < iters*k/p; i++ {
				qs[r].Insert(uint64((next+i)*p + r))
			}
		})
		next += iters * k / p
	}
	run := func() {
		refill()
		m.MustRun(func(pe *comm.PE) {
			q := qs[pe.Rank()]
			for i := 0; i < iters; i++ {
				if got := q.DeleteMin(k); len(got) != k/p {
					t.Errorf("DeleteMin(%d) share %d, want %d", k, len(got), k/p)
				}
			}
		})
	}
	for i := 0; i < 3; i++ {
		run() // warm the pools and the treap arenas
	}
	base := testing.AllocsPerRun(5, func() { refill(); m.MustRun(func(pe *comm.PE) {}) })
	del := testing.AllocsPerRun(5, run)
	// A split-off tree + Keys would cost three per PE per op (the batch,
	// the tree and its RNG); PopSmallest leaves the batches and harness
	// noise.
	if extra := del - base - iters*p; extra > float64(2*p) {
		t.Errorf("DeleteMin loop allocates %.1f/run: %.1f over the %.1f harness baseline and the %d batches (budget %d)",
			del, extra, base, iters*p, 2*p)
	}
}

// DeleteMinFlexible must not allocate in steady state beyond the batch
// it hands back, as DeleteMin does not: the size sum, the flexible
// selection's rounds and its buffers, and the split run on the queue's
// buffers, pooled selection state and the treap arena.
func TestDeleteMinFlexibleZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p, iters, k = 8, 50, 4 * 8
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	qs := make([]*Queue[uint64], p)
	// next is every PE's next key index and taken what its last run
	// removed; refill puts that back, so every queue keeps its size and
	// the arena its nodes. Refilling is part of the baseline too.
	next := make([]int, p)
	taken := make([]int, p)
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		qs[r] = New[uint64](pe, 19)
		taken[r] = 4 * iters * k / p
	})
	refill := func() {
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			for i := 0; i < taken[r]; i++ {
				qs[r].Insert(uint64((next[r]+i)*p + r))
			}
			next[r] += taken[r]
			taken[r] = 0
		})
	}
	run := func() {
		refill()
		m.MustRun(func(pe *comm.PE) {
			q := qs[pe.Rank()]
			for i := 0; i < iters; i++ {
				got, n := q.DeleteMinFlexible(k, 2*k)
				if n < k || n > 2*k {
					t.Errorf("DeleteMinFlexible(%d, %d) removed %d", k, 2*k, n)
				}
				taken[pe.Rank()] += len(got)
			}
		})
	}
	for i := 0; i < 3; i++ {
		run() // warm the pools and the treap arenas
	}
	base := testing.AllocsPerRun(5, func() { refill(); m.MustRun(func(pe *comm.PE) {}) })
	del := testing.AllocsPerRun(5, run)
	if extra := del - base - iters*p; extra > float64(2*p) {
		t.Errorf("DeleteMinFlexible loop allocates %.1f/run: %.1f over the %.1f harness baseline and the %d batches (budget %d)",
			del, extra, base, iters*p, 2*p)
	}
}
