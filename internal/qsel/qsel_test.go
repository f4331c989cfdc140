package qsel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// inputGen builds the adversarial input classes the selection kernel must
// handle without degrading: uniform random, duplicates-heavy, sorted,
// reverse-sorted, all-equal, and organ-pipe.
var inputGens = []struct {
	name string
	gen  func(r *rand.Rand, n int) []uint64
}{
	{"random", func(r *rand.Rand, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = r.Uint64()
		}
		return s
	}},
	{"dupheavy", func(r *rand.Rand, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(r.Intn(1 + n/16))
		}
		return s
	}},
	{"sorted", func(r *rand.Rand, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(i) * 3
		}
		return s
	}},
	{"reverse", func(r *rand.Rand, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(n - i)
		}
		return s
	}},
	{"allequal", func(r *rand.Rand, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = 42
		}
		return s
	}},
	{"organpipe", func(r *rand.Rand, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(min(i, n-i))
		}
		return s
	}},
}

func TestSelectCrossCheck(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, ig := range inputGens {
		t.Run(ig.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 17, 100, 601, 5000} {
				orig := ig.gen(r, n)
				sorted := slices.Clone(orig)
				slices.Sort(sorted)
				// A spread of ranks including the extremes.
				ranks := []int{0, n / 3, n / 2, n - 1}
				for _, k := range ranks {
					s := slices.Clone(orig)
					got := Select(s, k)
					if got != sorted[k] {
						t.Fatalf("n=%d k=%d: Select=%d, want %d", n, k, got, sorted[k])
					}
					if s[k] != got {
						t.Fatalf("n=%d k=%d: s[k]=%d not in place", n, k, s[k])
					}
					for i := 0; i < k; i++ {
						if s[i] > got {
							t.Fatalf("n=%d k=%d: s[%d]=%d > s[k]=%d", n, k, i, s[i], got)
						}
					}
					for i := k + 1; i < n; i++ {
						if s[i] < got {
							t.Fatalf("n=%d k=%d: s[%d]=%d < s[k]=%d", n, k, i, s[i], got)
						}
					}
					// The multiset must be preserved.
					resorted := slices.Clone(s)
					slices.Sort(resorted)
					if !slices.Equal(resorted, sorted) {
						t.Fatalf("n=%d k=%d: multiset changed", n, k)
					}
				}
			}
		})
	}
}

func TestSelectRandomizedRanks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(2000)
		ig := inputGens[trial%len(inputGens)]
		orig := ig.gen(r, n)
		sorted := slices.Clone(orig)
		slices.Sort(sorted)
		k := r.Intn(n)
		s := slices.Clone(orig)
		if got := Select(s, k); got != sorted[k] {
			t.Fatalf("trial %d (%s) n=%d k=%d: Select=%d, want %d", trial, ig.name, n, k, got, sorted[k])
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(k=%d) did not panic", k)
				}
			}()
			Select([]uint64{1, 2, 3}, k)
		}()
	}
}

func TestPartitionRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(500)
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(r.Intn(64)) // heavy ties around the pivots
		}
		orig := slices.Clone(s)
		lo := uint64(r.Intn(64))
		hi := lo + uint64(r.Intn(int(64-lo)))
		na, nb := PartitionRange(s, lo, hi)
		var wantA, wantB int
		for _, v := range orig {
			switch {
			case v < lo:
				wantA++
			case v <= hi:
				wantB++
			}
		}
		if na != wantA || nb != wantB {
			t.Fatalf("trial %d: (na,nb)=(%d,%d), want (%d,%d)", trial, na, nb, wantA, wantB)
		}
		for i, v := range s {
			switch {
			case i < na && v >= lo:
				t.Fatalf("trial %d: band a violated at %d: %d", trial, i, v)
			case i >= na && i < na+nb && (v < lo || v > hi):
				t.Fatalf("trial %d: band b violated at %d: %d", trial, i, v)
			case i >= na+nb && v <= hi:
				t.Fatalf("trial %d: band c violated at %d: %d", trial, i, v)
			}
		}
		sorted1, sorted2 := slices.Clone(orig), slices.Clone(s)
		slices.Sort(sorted1)
		slices.Sort(sorted2)
		if !slices.Equal(sorted1, sorted2) {
			t.Fatalf("trial %d: multiset changed", trial)
		}
	}
}

func TestSelectZeroAlloc(t *testing.T) {
	s := make([]uint64, 10000)
	r := rand.New(rand.NewSource(9))
	refill := func() {
		for i := range s {
			s[i] = r.Uint64()
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(20, func() {
		Select(s, len(s)/2)
	}); allocs != 0 {
		t.Errorf("Select allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		PartitionRange(s, 1<<62, 1<<63)
	}); allocs != 0 {
		t.Errorf("PartitionRange allocates %.1f per run, want 0", allocs)
	}
	n := 4 * 2048
	f := make([]float64, n)
	i64 := make([]int64, n)
	for i := range f {
		f[i] = r.NormFloat64()
		i64[i] = int64(r.Uint64())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		Select(f, n/2)
		Select(i64, n/2)
	}); allocs != 0 {
		t.Errorf("Select (float64, int64) allocates %.1f per run, want 0", allocs)
	}
	u, dst := s[:n], make([]uint64, n)
	if allocs := testing.AllocsPerRun(10, func() {
		SelectInto(dst, u, n/2)
	}); allocs != 0 {
		t.Errorf("SelectInto allocates %.1f per run, want 0", allocs)
	}
	// A sawtooth at 2^17 elements: a small value range, long equal runs.
	nw := 1 << 17
	saw := make([]uint64, nw)
	for i := range saw {
		saw[i] = uint64(i % 1024)
	}
	dstW := make([]uint64, nw)
	if allocs := testing.AllocsPerRun(10, func() {
		SelectInto(dstW, saw, nw/2)
	}); allocs != 0 {
		t.Errorf("SelectInto (n=%d sawtooth) allocates %.1f per run, want 0", nw, allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		Rank(u, u[0])
	}); allocs != 0 {
		t.Errorf("Rank allocates %.1f per run, want 0", allocs)
	}
}

func TestRank(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(500)
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(r.Intn(64))
		}
		v := uint64(r.Intn(64))
		below, equal := Rank(s, v)
		wb, we := 0, 0
		for _, e := range s {
			if e < v {
				wb++
			} else if e == v {
				we++
			}
		}
		if below != wb || equal != we {
			t.Fatalf("trial %d: Rank=(%d,%d), want (%d,%d)", trial, below, equal, wb, we)
		}
	}
}

func TestSelectInto(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	src := make([]uint64, 5000)
	for i := range src {
		src[i] = r.Uint64()
	}
	orig := slices.Clone(src)
	sorted := slices.Clone(src)
	slices.Sort(sorted)
	dst := make([]uint64, len(src)+7)
	got := SelectInto(dst, src, 1234)
	if got != sorted[1234] {
		t.Fatalf("SelectInto: got %d want %d", got, sorted[1234])
	}
	if !slices.Equal(src, orig) {
		t.Fatal("SelectInto modified src")
	}
}

func BenchmarkSelectVsSort(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		r := rand.New(rand.NewSource(4))
		orig := make([]uint64, n)
		for i := range orig {
			orig[i] = r.Uint64()
		}
		work := make([]uint64, n)
		b.Run(fmt.Sprintf("Select/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, orig)
				Select(work, n/2)
			}
		})
		b.Run(fmt.Sprintf("Sort/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, orig)
				slices.Sort(work)
			}
		})
	}
}

// BenchmarkBandSplit times one split of a window around a middle band of
// half its elements: the swap loop on a fresh copy (what the unsorted
// selection paid per level before SplitBand), SplitBand into a second
// buffer, and the Rank and Keep passes (Keep with one end is a speculation
// miss compacted out of the window, with two a window rebuilt from the
// shard).
func BenchmarkBandSplit(b *testing.B) {
	const n = 1 << 17
	r := rand.New(rand.NewSource(5))
	src := make([]uint64, n)
	for i := range src {
		src[i] = r.Uint64()
	}
	lo, hi := uint64(1)<<62, uint64(3)<<62
	work := make([]uint64, n)
	b.Run("copy+PartitionRange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, src)
			bandSink, bandSink2 = PartitionRange(work, lo, hi)
		}
	})
	b.Run("SplitBand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bandSink, bandSink2 = SplitBand(work, src, lo, hi)
		}
	})
	b.Run("Keep/two ends", func(b *testing.B) {
		iv := Interval[uint64]{Lo: lo, LoEnd: Open, Hi: hi, HiEnd: Closed}
		for i := 0; i < b.N; i++ {
			bandSink = Keep(work, src, iv)
		}
	})
	b.Run("Keep/one end", func(b *testing.B) {
		iv := Interval[uint64]{Hi: lo, HiEnd: Open}
		for i := 0; i < b.N; i++ {
			bandSink = Keep(work, src, iv)
		}
	})
	b.Run("Rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bandSink, bandSink2 = Rank(src, lo)
		}
	})
}

// bandSink and bandSink2 keep BenchmarkBandSplit's results live.
var bandSink, bandSink2 int
