package qsel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// inBand is the oracle of Keep: e lies inside iv.
func inBand[K selKey](e K, iv Interval[K]) bool {
	switch iv.LoEnd {
	case Open:
		if !(iv.Lo < e) {
			return false
		}
	case Closed:
		if e < iv.Lo {
			return false
		}
	}
	switch iv.HiEnd {
	case Open:
		return e < iv.Hi
	case Closed:
		return !(iv.Hi < e)
	}
	return true
}

// filter returns the elements of s inside iv in their order in s.
func filter[K selKey](s []K, iv Interval[K]) []K {
	var out []K
	for _, e := range s {
		if inBand(e, iv) {
			out = append(out, e)
		}
	}
	return out
}

// sameBits reports whether a and b hold the same elements in the same
// order, −0.0 and +0.0 told apart, so a kernel that rewrote a key fails.
func sameBits[K selKey](a, b []K) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] || math.Signbit(float64(a[i])) != math.Signbit(float64(b[i])) {
			return false
		}
	}
	return true
}

// splitBandCase checks SplitBand against PartitionRange as the oracle on
// orig around [lo, hi] — the same (na, nb), the same band-b multiset —
// and band b's order against orig's, in the three aliasing forms the
// selection uses: a separate dst, in place, and dst starting before src
// in one array. Then Keep with every kind of end on lo and hi against an
// input-order filter, separate and in place. orig is never written.
func splitBandCase[K selKey](t *testing.T, label string, orig []K, lo, hi K) {
	t.Helper()
	n := len(orig)
	s := slices.Clone(orig)
	na, nb := PartitionRange(s, lo, hi)
	wantBand := s[na : na+nb]
	slices.Sort(wantBand)
	order := filter(orig, Interval[K]{Lo: lo, LoEnd: Closed, Hi: hi, HiEnd: Closed})

	check := func(form string, ga, gb int, band []K) {
		t.Helper()
		if ga != na || gb != nb {
			t.Fatalf("%s n=%d [%v, %v] %s: SplitBand = (%d, %d), PartitionRange (%d, %d)", label, n, lo, hi, form, ga, gb, na, nb)
		}
		if !sameBits(band, order) {
			t.Fatalf("%s n=%d [%v, %v] %s: band %v, want %v in input order", label, n, lo, hi, form, band, order)
		}
		sorted := slices.Clone(band)
		slices.Sort(sorted)
		if !slices.Equal(sorted, wantBand) {
			t.Fatalf("%s n=%d [%v, %v] %s: band multiset differs from PartitionRange's", label, n, lo, hi, form)
		}
	}

	src := slices.Clone(orig)
	dst := make([]K, n)
	for i := range dst {
		dst[i] = 7 // stale values the kernel must overwrite
	}
	ga, gb := SplitBand(dst, src, lo, hi)
	check("separate", ga, gb, dst[:gb])
	if !sameBits(src, orig) {
		t.Fatalf("%s n=%d: SplitBand wrote its source", label, n)
	}
	inPlace := slices.Clone(orig)
	ga, gb = SplitBand(inPlace, inPlace, lo, hi)
	check("in place", ga, gb, inPlace[:gb])
	buf := make([]K, n+n/2)
	copy(buf[n/2:], orig)
	ga, gb = SplitBand(buf, buf[n/2:], lo, hi)
	check("before src", ga, gb, buf[:gb])

	for _, le := range []End{Unbounded, Open, Closed} {
		for _, he := range []End{Unbounded, Open, Closed} {
			iv := Interval[K]{Lo: lo, LoEnd: le, Hi: hi, HiEnd: he}
			want := filter(orig, iv)
			got := dst[:Keep(dst, orig, iv)]
			if !sameBits(got, want) {
				t.Fatalf("%s n=%d: Keep(%+v) = %v, want %v", label, n, iv, got, want)
			}
			inPlace := slices.Clone(orig)
			got = inPlace[:Keep(inPlace, inPlace, iv)]
			if !sameBits(got, want) {
				t.Fatalf("%s n=%d: Keep(%+v) in place = %v, want %v", label, n, iv, got, want)
			}
		}
	}
}

// TestSplitBandAgainstPartitionRange runs splitBandCase over heavy
// duplicates with lo == hi, empty bands (between two values and beyond
// either end), bands that are the whole window, the empty window, and
// floats with ±0 on a band edge.
func TestSplitBandAgainstPartitionRange(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(300)
		s := make([]uint64, n)
		for i := range s {
			s[i] = 2 * uint64(r.Intn(16)) // even values only: odd bounds cut between them
		}
		lo := uint64(r.Intn(34))
		hi := lo + uint64(r.Intn(6))
		splitBandCase(t, "random", s, lo, hi)
		splitBandCase(t, "lo == hi", s, lo, lo)
		splitBandCase(t, "empty band between values", s, 5, 5)
		splitBandCase(t, "empty band above", s, 40, 50)
		splitBandCase(t, "whole window", s, 0, 30)
	}
	splitBandCase(t, "empty window", []uint64{}, 1, 2)
	splitBandCase(t, "all equal, band is all", []uint64{4, 4, 4, 4}, 4, 4)
	negZero := math.Copysign(0, -1)
	floats := []float64{1, negZero, -1, 0, negZero, 2, 0, -2}
	splitBandCase(t, "±0 on lo", floats, 0, 1)
	splitBandCase(t, "±0 on hi", floats, -1, negZero)
	splitBandCase(t, "±0 both", floats, negZero, 0)
}

// TestSplitBandZeroAlloc: the band kernels allocate nothing.
func TestSplitBandZeroAlloc(t *testing.T) {
	src := make([]uint64, 4096)
	for i := range src {
		src[i] = uint64(i * 7919 % 4096)
	}
	dst := make([]uint64, len(src))
	iv := Interval[uint64]{Lo: 100, LoEnd: Open, Hi: 3000, HiEnd: Closed}
	if a := testing.AllocsPerRun(20, func() {
		SplitBand(dst, src, 100, 3000)
		Keep(dst, src, iv)
		SplitBand(dst, dst, 200, 2000)
	}); a != 0 {
		t.Errorf("SplitBand/Keep allocate %.1f per run, want 0", a)
	}
}
