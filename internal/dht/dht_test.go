package dht

import (
	"slices"
	"testing"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/xrand"
)

var peCounts = []int{1, 2, 3, 4, 7, 8, 12}

func localCountsFor(seed int64, rank, universe, items int) map[uint64]int64 {
	rng := xrand.NewPE(seed, rank)
	m := map[uint64]int64{}
	for i := 0; i < items; i++ {
		m[uint64(rng.Intn(universe))]++
	}
	return m
}

// runsFromMap turns a count map into count runs (test convenience).
func runsFromMap(m map[uint64]int64) []KV {
	kvs := make([]KV, 0, len(m))
	for k, c := range m {
		kvs = append(kvs, KV{k, c})
	}
	return SumKVs(kvs)
}

// countKV is CountKV with the shard copied out of its pooled buffer.
func countKV(pe *comm.PE, items []KV, mode RouteMode) []KV {
	shard := CountKV(pe, items, mode)
	out := slices.Clone(*shard)
	commbuf.Put(shard)
	return out
}

// isRuns reports whether kvs holds each key once, keys ascending.
func isRuns(kvs []KV) bool {
	for i := 1; i < len(kvs); i++ {
		if kvs[i-1].Key >= kvs[i].Key {
			return false
		}
	}
	return true
}

func globalExpected(seed int64, p, universe, items int) map[uint64]int64 {
	want := map[uint64]int64{}
	for r := 0; r < p; r++ {
		for k, c := range localCountsFor(seed, r, universe, items) {
			want[k] += c
		}
	}
	return want
}

func TestCountKeysBothRoutes(t *testing.T) {
	for _, mode := range []RouteMode{RouteDirect, RouteHypercube} {
		for _, p := range peCounts {
			want := globalExpected(42, p, 200, 500)
			m := comm.NewMachine(comm.DefaultConfig(p))
			got := make([][]KV, p)
			m.MustRun(func(pe *comm.PE) {
				local := runsFromMap(localCountsFor(42, pe.Rank(), 200, 500))
				got[pe.Rank()] = countKV(pe, local, mode)
			})
			merged := map[uint64]int64{}
			for r, shard := range got {
				if !isRuns(shard) {
					t.Errorf("mode=%d p=%d: PE %d's shard is not runs", mode, p, r)
				}
				for _, kv := range shard {
					if Owner(kv.Key, p) != r {
						t.Errorf("mode=%d p=%d: key %d landed on %d, owner %d", mode, p, kv.Key, r, Owner(kv.Key, p))
					}
					merged[kv.Key] += kv.Count
				}
			}
			if len(merged) != len(want) {
				t.Fatalf("mode=%d p=%d: %d distinct keys, want %d", mode, p, len(merged), len(want))
			}
			for k, c := range want {
				if merged[k] != c {
					t.Errorf("mode=%d p=%d: key %d count %d, want %d", mode, p, k, merged[k], c)
				}
			}
		}
	}
}

func TestCountKeysEmpty(t *testing.T) {
	m := comm.NewMachine(comm.DefaultConfig(4))
	m.MustRun(func(pe *comm.PE) {
		got := countKV(pe, nil, RouteHypercube)
		if len(got) != 0 {
			t.Errorf("empty insert produced %v", got)
		}
	})
}

func TestHypercubeVolumeAdvantageOnSharedKeys(t *testing.T) {
	// When all PEs count the same keys, per-step aggregation should keep
	// hypercube volume below direct delivery's p copies.
	const p = 16
	const universe = 64
	run := func(mode RouteMode) int64 {
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			local := make([]KV, universe)
			for k := range local {
				local[k] = KV{uint64(k), int64(pe.Rank() + 1)}
			}
			countKV(pe, local, mode)
		})
		return m.Stats().MaxRecvWords
	}
	direct, hyper := run(RouteDirect), run(RouteHypercube)
	if hyper >= direct {
		t.Errorf("hypercube bottleneck volume %d not below direct %d", hyper, direct)
	}
}

func TestMixDistributesOwners(t *testing.T) {
	const p = 8
	counts := make([]int, p)
	for k := uint64(0); k < 8000; k++ {
		counts[Owner(k, p)]++
	}
	for r, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("owner %d got %d/8000 keys; hash is skewed", r, c)
		}
	}
}

func TestSBFCountsMatch(t *testing.T) {
	for _, p := range []int{1, 4, 6} {
		want := globalExpected(7, p, 300, 400)
		m := comm.NewMachine(comm.DefaultConfig(p))
		cellsByPE := make([]map[uint32]int64, p)
		m.MustRun(func(pe *comm.PE) {
			s := BuildSBF(pe, runsFromMap(localCountsFor(7, pe.Rank(), 300, 400)))
			if !isRuns(s.Cells) {
				t.Errorf("p=%d: PE %d's cells are not runs", p, pe.Rank())
			}
			cells := map[uint32]int64{}
			for _, kv := range s.Cells {
				cells[uint32(kv.Key)] = kv.Count
			}
			cellsByPE[pe.Rank()] = cells
		})
		// Cell sums must equal the key-count sums grouped by cell
		// (collisions merge, never lose).
		wantCells := map[uint32]int64{}
		for k, c := range want {
			wantCells[cellOf(k)] += c
		}
		gotCells := map[uint32]int64{}
		for r, cells := range cellsByPE {
			for cell, c := range cells {
				if cellOwner(cell, p) != r {
					t.Errorf("p=%d: cell %d on wrong PE", p, cell)
				}
				gotCells[cell] += c
			}
		}
		if len(gotCells) != len(wantCells) {
			t.Fatalf("p=%d: %d cells, want %d", p, len(gotCells), len(wantCells))
		}
		for cell, c := range wantCells {
			if gotCells[cell] != c {
				t.Errorf("p=%d: cell %d count %d, want %d", p, cell, gotCells[cell], c)
			}
		}
	}
}

func TestSBFResolveSplitsCollisions(t *testing.T) {
	const p = 4
	want := globalExpected(11, p, 100, 300)
	m := comm.NewMachine(comm.DefaultConfig(p))
	resolvedByPE := make([][]KV, p)
	m.MustRun(func(pe *comm.PE) {
		s := BuildSBF(pe, runsFromMap(localCountsFor(11, pe.Rank(), 100, 300)))
		// Resolve every cell: must reconstruct the full exact counts.
		var cells []uint32
		for k := range want {
			cells = append(cells, cellOf(k))
		}
		resolvedByPE[pe.Rank()] = s.Resolve(cells)
	})
	for r := 0; r < p; r++ {
		if !isRuns(resolvedByPE[r]) {
			t.Errorf("PE %d's resolution is not runs", r)
		}
		got := map[uint64]int64{}
		for _, kv := range resolvedByPE[r] {
			got[kv.Key] += kv.Count
		}
		if len(got) != len(want) {
			t.Fatalf("PE %d resolved %d keys, want %d", r, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Errorf("PE %d: key %d resolved to %d, want %d", r, k, got[k], c)
			}
		}
	}
}

func TestSBFWireFormatIsOneWord(t *testing.T) {
	// The refinement's raison d'être: a cell must cost 1 word vs KV's 2.
	if w := coll.WordsOf[HC](); w != 1 {
		t.Errorf("HC costs %d words, want 1", w)
	}
	if w := coll.WordsOf[KV](); w != 2 {
		t.Errorf("KV costs %d words, want 2", w)
	}
}
