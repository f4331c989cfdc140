package treap

import (
	"slices"
	"testing"

	"commtopk/internal/xrand"
)

// shape flattens a tree to (key, prio, size) triples in order — treap
// shape is a function of the (key, priority) set, so equal shapes mean
// bit-identical trees.
func shape(tr *Tree[uint64]) (out [][3]uint64) {
	var walk func(n *node[uint64])
	walk = func(n *node[uint64]) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, [3]uint64{n.key, n.prio, uint64(n.size)})
		walk(n.right)
	}
	walk(tr.root)
	return out
}

// TestBuildSortedMatchesInsert pins the bit-identity contract: BuildSorted
// consumes the same priority stream as per-key Insert and must therefore
// produce the identical tree, sizes included.
func TestBuildSortedMatchesInsert(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)*3 + 1
		}
		a := New[uint64](42)
		a.BuildSorted(keys)
		b := New[uint64](42)
		for _, k := range keys {
			b.Insert(k)
		}
		if !slices.Equal(shape(a), shape(b)) {
			t.Fatalf("n=%d: BuildSorted shape differs from per-key Insert", n)
		}
		if n > 0 {
			if mn, _ := a.Min(); mn != keys[0] {
				t.Fatalf("n=%d: Min=%d", n, mn)
			}
			if mx, _ := a.Max(); mx != keys[n-1] {
				t.Fatalf("n=%d: Max=%d", n, mx)
			}
		}
	}
}

func TestBuildSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildSorted on a descending batch should panic")
		}
	}()
	New[uint64](1).BuildSorted([]uint64{3, 2})
}

func TestBuildSortedPanicsOnNonEmpty(t *testing.T) {
	tr := New[uint64](1)
	tr.Insert(7)
	defer func() {
		if recover() == nil {
			t.Error("BuildSorted on a non-empty tree should panic")
		}
	}()
	tr.BuildSorted([]uint64{8, 9})
}

// TestInsertBulkAscendingFastPath pins that a monotone batch takes the
// O(n) build (counter-guarded: no per-key path means no extra slab
// probes, and the shape still matches per-key insertion exactly).
func TestInsertBulkAscendingFastPath(t *testing.T) {
	base := []uint64{5, 10, 15}
	batch := []uint64{20, 21, 30, 44}
	a := New[uint64](9)
	a.InsertBulk(base)
	if got := a.InsertBulk(batch); got != len(batch) {
		t.Fatalf("fast-path InsertBulk inserted %d, want %d", got, len(batch))
	}
	b := New[uint64](9)
	for _, k := range append(slices.Clone(base), batch...) {
		b.Insert(k)
	}
	if !slices.Equal(shape(a), shape(b)) {
		t.Fatal("ascending InsertBulk shape differs from per-key Insert")
	}
	if mx, _ := a.Max(); mx != 44 {
		t.Fatalf("Max=%d after monotone bulk", mx)
	}
	// Non-monotone batches still go key by key with duplicate skipping.
	if got := a.InsertBulk([]uint64{1, 44, 2}); got != 2 {
		t.Fatalf("slow-path InsertBulk inserted %d, want 2", got)
	}
}

// TestArenaPathTaken is the counter-guarded path test (ArenaStats, not
// timing): churn must run through the free list, not the heap.
func TestArenaPathTaken(t *testing.T) {
	tr := New[uint64](5)
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i * 2654435761 % 1000003)
	}
	s0 := tr.ArenaStats()
	if s0.Slabs == 0 {
		t.Fatal("slab path never taken during initial build")
	}
	// Delete/Insert churn: every delete recycles, every insert reuses.
	for i := uint64(0); i < 500; i++ {
		k := i * 2654435761 % 1000003
		if !tr.Delete(k) {
			t.Fatalf("delete of live key %d failed", k)
		}
		tr.Insert(k + 1000003)
	}
	s1 := tr.ArenaStats()
	if d := s1.Recycled - s0.Recycled; d != 500 {
		t.Errorf("churn recycled %d nodes, want 500", d)
	}
	if d := s1.Reused - s0.Reused; d != 500 {
		t.Errorf("churn reused %d nodes, want 500", d)
	}
	if s1.Slabs != s0.Slabs {
		t.Errorf("churn allocated %d extra slabs, want 0", s1.Slabs-s0.Slabs)
	}
	// Split-extract-recycle: the DeleteMin batch pattern returns every
	// extracted node to the shared arena.
	batch := tr.SplitByRank(300)
	_ = batch.Keys()
	batch.Recycle()
	s2 := tr.ArenaStats()
	if d := s2.Recycled - s1.Recycled; d != 300 {
		t.Errorf("batch recycle returned %d nodes, want 300", d)
	}
	// Refill reuses the whole recycled batch before touching a slab.
	for i := uint64(0); i < 300; i++ {
		tr.Insert(2000000 + i)
	}
	s3 := tr.ArenaStats()
	if d := s3.Reused - s2.Reused; d != 300 {
		t.Errorf("refill reused %d nodes, want 300", d)
	}
	if s3.Slabs != s2.Slabs {
		t.Errorf("refill allocated %d extra slabs, want 0", s3.Slabs-s2.Slabs)
	}
}

// TestChurnZeroAlloc pins the arena's reason to exist: steady-state
// insert/delete churn performs zero heap allocations per op.
func TestChurnZeroAlloc(t *testing.T) {
	tr := New[uint64](3)
	for i := uint64(0); i < 4096; i++ {
		tr.Insert(i * 2654435761 % 1000003)
	}
	key := uint64(4*2654435761) % 1000003
	if a := testing.AllocsPerRun(200, func() {
		tr.Delete(key)
		tr.Insert(key)
	}); a != 0 {
		t.Errorf("Delete+Insert allocs = %v, want 0 (arena)", a)
	}
}

// TestRecycleInvariants: recycled trees stay usable, and trees built over
// heavily recycled arenas keep the full structural invariants.
func TestRecycleInvariants(t *testing.T) {
	rng := xrand.New(77)
	tr := New[uint64](31)
	live := map[uint64]bool{}
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			k := rng.Uint64() % 4096
			if tr.Insert(k) == live[k] {
				t.Fatalf("Insert(%d) disagreed with model", k)
			}
			live[k] = true
		}
		// Extract a prefix batch, read it, recycle it — the DeleteMin cycle.
		n := tr.Len() / 2
		batch := tr.SplitByRank(n)
		for _, k := range batch.Keys() {
			if !live[k] {
				t.Fatalf("batch key %d not live", k)
			}
			delete(live, k)
		}
		batch.Recycle()
		if batch.Len() != 0 {
			t.Fatal("Recycle left keys behind")
		}
		checkInvariants(t, tr)
	}
	keys := tr.Keys()
	if len(keys) != len(live) || !slices.IsSorted(keys) {
		t.Fatalf("final tree broken: %d keys, model %d", len(keys), len(live))
	}
}

// TestPopSmallest: PopSmallest(i) hands out exactly what SplitByRank(i)
// then Keys would, leaves the same tree behind with its invariants, and
// recycles the nodes without allocating beyond dst.
func TestPopSmallest(t *testing.T) {
	rng := xrand.New(78)
	tr := New[uint64](32)
	for tr.Len() < 2000 {
		tr.Insert(rng.Uint64() % 100000)
	}
	for _, i := range []int{-1, 0, 1, 7, 300, 1500, 5000} {
		want := tr.Keys()
		i0 := min(max(i, 0), len(want))
		got := tr.PopSmallest(i, []uint64{42})
		if got[0] != 42 || !slices.Equal(got[1:], want[:i0]) {
			t.Fatalf("PopSmallest(%d) = %d keys %v…, want the %d smallest", i, len(got)-1, got[:min(len(got), 4)], i0)
		}
		if !slices.Equal(tr.Keys(), want[i0:]) {
			t.Fatalf("PopSmallest(%d) left the wrong keys behind", i)
		}
		if mn, ok := tr.Min(); ok != (i0 < len(want)) || ok && mn != want[i0] {
			t.Fatalf("PopSmallest(%d): Min = %d, %v", i, mn, ok)
		}
		checkInvariants(t, tr)
		for tr.Len() < 2000 {
			tr.Insert(rng.Uint64() % 100000)
		}
	}
	dst := make([]uint64, 0, 64)
	if a := testing.AllocsPerRun(100, func() {
		dst = tr.PopSmallest(64, dst[:0])
		for _, k := range dst {
			tr.Insert(k)
		}
	}); a != 0 {
		t.Errorf("PopSmallest + reinsert allocates %v/op, want 0", a)
	}
}
