package qsel

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortPairsStableAgainstSortOracle checks the radix engine against
// slices.SortStableFunc on the pairs: the same keys in the same order and
// equal keys' payloads in input order, for key sets that exercise every
// pass count, including none.
func TestSortPairsStableAgainstSortOracle(t *testing.T) {
	type pair struct {
		k uint64
		v int32
	}
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name string
		draw func() uint64
	}{
		{"random", rng.Uint64},
		{"low-byte", func() uint64 { return uint64(rng.Intn(256)) }},
		{"top-byte", func() uint64 { return uint64(rng.Intn(3))<<56 | 42 }},
		{"equal", func() uint64 { return 1 << 40 }},
		{"few", func() uint64 { return uint64(rng.Intn(5)) << 17 }},
	}
	for _, n := range []int{0, 1, 2, 3, 100, 5000} {
		for _, sh := range shapes {
			keys := make([]uint64, n)
			vals := make([]int32, n)
			ref := make([]pair, n)
			for i := range keys {
				keys[i], vals[i] = sh.draw(), int32(i)
				ref[i] = pair{keys[i], vals[i]}
			}
			in := slices.Clone(keys)
			slices.SortStableFunc(ref, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
			ka, kb := make([]uint64, n+1), make([]uint64, n+1)
			va, vb := make([]int32, n+1), make([]int32, n+1)
			gk, gv := SortPairs(keys, vals, ka, va, kb, vb)
			label := fmt.Sprintf("n=%d %s", n, sh.name)
			if len(gk) != n || len(gv) != n {
				t.Fatalf("%s: returned %d keys and %d values", label, len(gk), len(gv))
			}
			for i := range ref {
				if gk[i] != ref[i].k || gv[i] != ref[i].v {
					t.Fatalf("%s: pair %d is (%#x, %d), want (%#x, %d)", label, i, gk[i], gv[i], ref[i].k, ref[i].v)
				}
			}
			if !slices.Equal(keys, in) {
				t.Fatalf("%s: the input was written", label)
			}
		}
	}
}

// TestSortPairsZeroAlloc: the engine allocates nothing.
func TestSortPairsZeroAlloc(t *testing.T) {
	keys := make([]uint64, 1000)
	vals := make([]float64, 1000)
	for i := range keys {
		keys[i] = uint64(i*7919) % 1000
	}
	ka, kb := make([]uint64, 1000), make([]uint64, 1000)
	va, vb := make([]float64, 1000), make([]float64, 1000)
	if n := testing.AllocsPerRun(20, func() { SortPairs(keys, vals, ka, va, kb, vb) }); n != 0 {
		t.Errorf("SortPairs: %v allocs/op", n)
	}
}
