package bpq

import (
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// uniqueValues produces n distinct uint64s split across p PEs.
func uniqueValues(seed int64, n, p int) ([][]uint64, []uint64) {
	rng := xrand.New(seed)
	seen := map[uint64]bool{}
	global := make([]uint64, 0, n)
	for len(global) < n {
		v := rng.Uint64() % uint64(16*n)
		if !seen[v] {
			seen[v] = true
			global = append(global, v)
		}
	}
	parts := make([][]uint64, p)
	for i, v := range global {
		parts[i%p] = append(parts[i%p], v)
	}
	sorted := slices.Clone(global)
	slices.Sort(sorted)
	return parts, sorted
}

func TestInsertIsLocal(t *testing.T) {
	const p = 4
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		q := New[uint64](pe, 1)
		for i := 0; i < 100; i++ {
			q.Insert(uint64(pe.Rank()*1000 + i))
		}
		if q.LocalLen() != 100 {
			t.Errorf("LocalLen = %d", q.LocalLen())
		}
	})
	// The whole point of Section 5: insertion costs zero communication.
	if s := m.Stats(); s.TotalWords != 0 || s.TotalSends != 0 {
		t.Errorf("insertions communicated: %+v", s)
	}
}

func TestGlobalLenAndPeekMin(t *testing.T) {
	const p = 5
	parts, sorted := uniqueValues(3, 500, p)
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		q := New[uint64](pe, 2)
		q.InsertBulk(parts[pe.Rank()])
		if got := q.GlobalLen(); got != 500 {
			t.Errorf("GlobalLen = %d", got)
		}
		mn, ok := q.PeekMin()
		if !ok || mn != sorted[0] {
			t.Errorf("PeekMin = %d,%v want %d", mn, ok, sorted[0])
		}
	})
}

func TestPeekMinEmpty(t *testing.T) {
	m := comm.NewMachine(comm.DefaultConfig(3))
	m.MustRun(func(pe *comm.PE) {
		q := New[uint64](pe, 4)
		if _, ok := q.PeekMin(); ok {
			t.Error("PeekMin on empty queue returned ok")
		}
	})
}

func TestDeleteMinExactBatches(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		parts, sorted := uniqueValues(5, 1000, p)
		m := comm.NewMachine(comm.DefaultConfig(p))
		batches := make([][][]uint64, 4) // batches[b][rank]
		for b := range batches {
			batches[b] = make([][]uint64, p)
		}
		m.MustRun(func(pe *comm.PE) {
			q := New[uint64](pe, 6)
			q.InsertBulk(parts[pe.Rank()])
			for b := 0; b < 4; b++ {
				batches[b][pe.Rank()] = q.DeleteMin(100)
			}
			if got := q.GlobalLen(); got != 600 {
				t.Errorf("p=%d: after 4x100 deletions GlobalLen = %d", p, got)
			}
		})
		// Each batch must be exactly the next 100 smallest global elements.
		for b := 0; b < 4; b++ {
			var all []uint64
			for _, share := range batches[b] {
				all = append(all, share...)
			}
			slices.Sort(all)
			want := sorted[b*100 : (b+1)*100]
			if !slices.Equal(all, want) {
				t.Errorf("p=%d batch %d: wrong contents (%d elements)", p, b, len(all))
			}
		}
	}
}

func TestDeleteMinDrainsEverything(t *testing.T) {
	const p = 3
	parts, sorted := uniqueValues(7, 100, p)
	m := comm.NewMachine(comm.DefaultConfig(p))
	out := make([][]uint64, p)
	m.MustRun(func(pe *comm.PE) {
		q := New[uint64](pe, 8)
		q.InsertBulk(parts[pe.Rank()])
		out[pe.Rank()] = q.DeleteMin(1 << 30) // way more than present
		if q.GlobalLen() != 0 {
			t.Error("queue not empty after over-sized DeleteMin")
		}
		if got := q.DeleteMin(10); got != nil {
			t.Errorf("DeleteMin on empty queue returned %v", got)
		}
	})
	var all []uint64
	for _, s := range out {
		all = append(all, s...)
	}
	slices.Sort(all)
	if !slices.Equal(all, sorted) {
		t.Error("drained contents differ from inserted")
	}
}

func TestDeleteMinFlexible(t *testing.T) {
	for _, p := range []int{1, 3, 6} {
		parts, sorted := uniqueValues(9, 800, p)
		m := comm.NewMachine(comm.DefaultConfig(p))
		shares := make([][]uint64, p)
		var count int64
		m.MustRun(func(pe *comm.PE) {
			q := New[uint64](pe, 10)
			q.InsertBulk(parts[pe.Rank()])
			share, k := q.DeleteMinFlexible(100, 200)
			shares[pe.Rank()] = share
			if pe.Rank() == 0 {
				count = k
			}
			if got := q.GlobalLen(); got != 800-k {
				t.Errorf("p=%d: GlobalLen %d after flexible delete of %d", p, got, k)
			}
		})
		if count < 100 || count > 200 {
			t.Errorf("p=%d: flexible count %d outside [100,200]", p, count)
		}
		var all []uint64
		for _, s := range shares {
			all = append(all, s...)
		}
		slices.Sort(all)
		if !slices.Equal(all, sorted[:count]) {
			t.Errorf("p=%d: flexible batch is not the %d smallest", p, count)
		}
	}
}

func TestDeleteMinFlexibleLatencyAdvantage(t *testing.T) {
	// Theorem 5: flexible batches need O(α log kp) against Algorithm 9's
	// O(α log² kp). The exact batch here is Algorithm 1 on the Appendix A
	// prefix, O(α log kp) as well; at this shape flexible must still use at
	// most as many bottleneck startups.
	const p = 8
	parts, _ := uniqueValues(11, 8000, p)
	run := func(flexible bool) int64 {
		m := comm.NewMachine(comm.DefaultConfig(p))
		// Insertions are local (zero communication), so measuring the whole
		// run isolates the deleteMin* cost.
		m.MustRun(func(pe *comm.PE) {
			q := New[uint64](pe, 12)
			q.InsertBulk(parts[pe.Rank()])
			if flexible {
				q.DeleteMinFlexible(1000, 2000)
			} else {
				q.DeleteMin(1000)
			}
		})
		return m.Stats().MaxSends
	}
	exact, flex := run(false), run(true)
	t.Logf("bottleneck startups: exact %d, flexible %d", exact, flex)
	if flex > exact {
		t.Errorf("flexible deleteMin* used more startups (%d) than exact (%d)", flex, exact)
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	// Mixed workload against a sequential reference model.
	const p = 4
	const rounds = 6
	m := comm.NewMachine(comm.DefaultConfig(p))
	rng := xrand.New(13)
	// Pre-generate per-round insertions (globally unique).
	ins := make([][][]uint64, rounds) // ins[round][rank]
	var model []uint64
	seen := map[uint64]bool{}
	for r := range ins {
		ins[r] = make([][]uint64, p)
		for pe := 0; pe < p; pe++ {
			for i := 0; i < 50; i++ {
				v := rng.Uint64() % 1000000
				if seen[v] {
					continue
				}
				seen[v] = true
				ins[r][pe] = append(ins[r][pe], v)
			}
		}
	}
	got := make([][][]uint64, rounds)
	for r := range got {
		got[r] = make([][]uint64, p)
	}
	m.MustRun(func(pe *comm.PE) {
		q := New[uint64](pe, 14)
		for r := 0; r < rounds; r++ {
			q.InsertBulk(ins[r][pe.Rank()])
			got[r][pe.Rank()] = q.DeleteMin(30)
		}
	})
	// Replay on the reference model.
	for r := 0; r < rounds; r++ {
		for peRank := 0; peRank < p; peRank++ {
			model = append(model, ins[r][peRank]...)
		}
		slices.Sort(model)
		take := min(30, len(model))
		want := model[:take]
		model = slices.Clone(model[take:])
		var all []uint64
		for _, s := range got[r] {
			all = append(all, s...)
		}
		slices.Sort(all)
		if !slices.Equal(all, want) {
			t.Fatalf("round %d: batch mismatch (got %d want %d elements)", r, len(all), len(want))
		}
	}
}

func TestBatchesAreMonotone(t *testing.T) {
	// Every element of batch i must precede every element of batch i+1.
	const p = 4
	const rounds = 3
	parts, _ := uniqueValues(15, 600, p)
	m := comm.NewMachine(comm.DefaultConfig(p))
	shares := make([][][]uint64, rounds)
	for b := range shares {
		shares[b] = make([][]uint64, p)
	}
	m.MustRun(func(pe *comm.PE) {
		q := New[uint64](pe, 16)
		q.InsertBulk(parts[pe.Rank()])
		for b := 0; b < rounds; b++ {
			share, _ := q.DeleteMinFlexible(50, 120)
			shares[b][pe.Rank()] = share
		}
	})
	prevMax := uint64(0)
	for b := 0; b < rounds; b++ {
		var all []uint64
		for _, s := range shares[b] {
			all = append(all, s...)
		}
		if len(all) == 0 {
			t.Fatalf("batch %d empty", b)
		}
		if b > 0 && slices.Min(all) <= prevMax {
			t.Errorf("batch %d overlaps batch %d", b, b-1)
		}
		prevMax = slices.Max(all)
	}
}

func TestMakeUnique(t *testing.T) {
	// Distinct (seq, rank) pairs must give distinct keys; priority must
	// dominate the ordering.
	seenKeys := map[uint64]bool{}
	for seq := uint32(0); seq < 100; seq++ {
		for rank := 0; rank < 8; rank++ {
			k := MakeUnique(5, seq, rank, 8)
			if seenKeys[k] {
				t.Fatalf("duplicate key for seq=%d rank=%d", seq, rank)
			}
			seenKeys[k] = true
		}
	}
	if MakeUnique(1, 4000, 7, 8) >= MakeUnique(2, 0, 0, 8) {
		t.Error("priority must dominate the stamp")
	}
}
