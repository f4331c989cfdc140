package agg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"commtopk/internal/dht"
	"commtopk/internal/gen"
	"commtopk/internal/xrand"
)

// aggInput draws n (key, value) pairs of one key shape and one value
// shape.
func aggInput(rng *xrand.RNG, n int, keyShape, valShape string) ([]uint64, []float64) {
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		switch keyShape {
		case "random":
			keys[i] = rng.Uint64()
		case "top-byte":
			keys[i] = uint64(rng.Intn(4))<<56 | 0x0123456789abcd
		case "equal":
			keys[i] = 0xfeedface
		case "few":
			keys[i] = uint64(rng.Intn(7))
		}
		switch valShape {
		case "float":
			vals[i] = rng.Float64() * 100
		case "zeros":
			vals[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		case "subnormal":
			vals[i] = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		case "mixed":
			vals[i] = []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 0.1, 3}[rng.Intn(6)]
		}
	}
	return keys, vals
}

// TestLocalAggregateMatchesSumTable checks the radix aggregate against a
// hash-table oracle: strictly ascending keys, the same key set, and sums
// and total equal to the bit (+0, −0 and subnormal values included).
func TestLocalAggregateMatchesSumTable(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 2, 1000} {
		for _, ks := range []string{"random", "top-byte", "equal", "few"} {
			for _, vs := range []string{"float", "zeros", "subnormal", "mixed"} {
				name := fmt.Sprintf("n=%d keys=%s values=%s", n, ks, vs)
				keys, vals := aggInput(rng, n, ks, vs)
				oracle := dht.NewSumTable(n)
				for i, k := range keys {
					oracle.Add(k, vals[i])
				}
				a := LocalAggregate(keys, vals)
				var want []uint64
				oracle.ForEach(func(k uint64, _ float64) { want = append(want, k) })
				slices.Sort(want)
				if len(a.Keys) != len(want) || len(a.Sums) != len(want) {
					t.Fatalf("%s: %d keys and %d sums, oracle has %d keys", name, len(a.Keys), len(a.Sums), len(want))
				}
				for i, k := range a.Keys {
					if i > 0 && a.Keys[i-1] >= k {
						t.Fatalf("%s: keys not strictly ascending at %d", name, i)
					}
					if k != want[i] {
						t.Fatalf("%s: key %d is %#x, oracle %#x", name, i, k, want[i])
					}
					if s, _ := oracle.Get(k); math.Float64bits(a.Sums[i]) != math.Float64bits(s) {
						t.Fatalf("%s: key %#x sums to %v, oracle %v", name, k, a.Sums[i], s)
					}
					if g, ok := a.Get(k); !ok || g != a.Sums[i] {
						t.Fatalf("%s: Get(%#x) = %v, %v", name, k, g, ok)
					}
				}
				if math.Float64bits(a.Total()) != math.Float64bits(oracle.Total()) {
					t.Fatalf("%s: total %v, oracle %v", name, a.Total(), oracle.Total())
				}
				if _, ok := a.Get(0xdeadbeef); ok {
					t.Fatalf("%s: Get found an absent key", name)
				}
				a.Release()
				oracle.Release()
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a negative value after 999 good ones should panic")
		}
	}()
	keys, vals := aggInput(rng, 1000, "random", "float")
	vals[999] = -1
	LocalAggregate(keys, vals)
}

// TestLocalAggregateZeroAlloc: on a warm pool, building and releasing
// the aggregate reuses its buffers (the guard allows two allocations).
func TestLocalAggregateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is randomized under -race")
	}
	keys, vals := gen.WeightedInput(xrand.New(5), gen.NewZipf(1<<12, 1), 1<<12)
	a := LocalAggregate(keys, vals)
	a.Release()
	if n := testing.AllocsPerRun(100, func() {
		a := LocalAggregate(keys, vals)
		a.Release()
	}); n > 2 {
		t.Errorf("LocalAggregate + Release: %v allocs/op, want ≤ 2", n)
	}
}

// BenchmarkLocalAggregate times Section 8.1's per-key aggregation alone:
// 2^15 (key, value) pairs, keys Zipf over 2^16, built and released.
func BenchmarkLocalAggregate(b *testing.B) {
	keys, vals := gen.WeightedInput(xrand.New(5), gen.NewZipf(1<<16, 1), 1<<15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := LocalAggregate(keys, vals)
		a.Release()
	}
}
