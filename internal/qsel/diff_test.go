package qsel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The per-type sort-oracle differentials. Their test names
// (TestBucketSelect…) are kept for stable test ids.

// diffCase runs the differential: Select and SelectInto must agree with a
// sorted reference on the rank-k value, and Select must keep the
// partition invariant and the multiset.
func diffCase[K selKey](t *testing.T, label string, orig []K, k int) {
	t.Helper()
	n := len(orig)
	sorted := slices.Clone(orig)
	slices.Sort(sorted)

	s := slices.Clone(orig)
	got := Select(s, k)
	dst := make([]K, n)
	gotInto := SelectInto(dst, orig, k)

	if got != sorted[k] || gotInto != sorted[k] {
		t.Fatalf("%s n=%d k=%d: Select=%v SelectInto=%v, want %v",
			label, n, k, got, gotInto, sorted[k])
	}
	if s[k] != got {
		t.Fatalf("%s n=%d k=%d: s[k] not in place", label, n, k)
	}
	for i := 0; i < k; i++ {
		if s[i] > got {
			t.Fatalf("%s n=%d k=%d: s[%d]=%v > s[k]=%v", label, n, k, i, s[i], got)
		}
	}
	for i := k + 1; i < n; i++ {
		if s[i] < got {
			t.Fatalf("%s n=%d k=%d: s[%d]=%v < s[k]=%v", label, n, k, i, s[i], got)
		}
	}
	resorted := slices.Clone(s)
	slices.Sort(resorted)
	if !slices.Equal(resorted, sorted) {
		t.Fatalf("%s n=%d k=%d: multiset changed", label, n, k)
	}
}

// diffCaseReadOnly additionally pins that SelectInto never writes src.
func diffCaseReadOnly[K selKey](t *testing.T, label string, orig []K, k int) {
	t.Helper()
	snapshot := slices.Clone(orig)
	diffCase(t, label, orig, k)
	if !slices.Equal(orig, snapshot) {
		t.Fatalf("%s n=%d k=%d: SelectInto modified src", label, len(orig), k)
	}
}

// selKey is the test-local constraint: the eight fixed-width numeric key
// types the differentials cover.
type selKey interface {
	~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64 | ~float32 | ~float64
}

func runDiff[K selKey](t *testing.T, typeName string, gens []struct {
	name string
	gen  func(r *rand.Rand, n int) []K
}) {
	r := rand.New(rand.NewSource(11))
	// Both sides of Floyd–Rivest's 600-element sampling threshold, up to
	// 3·2048.
	sizes := []int{1, 3, 257, 2047, 2048, 2825, 6144}
	for _, g := range gens {
		t.Run(typeName+"/"+g.name, func(t *testing.T) {
			for _, n := range sizes {
				orig := g.gen(r, n)
				ks := []int{0, n / 4, n / 2, n - 1}
				for _, k := range ks {
					diffCaseReadOnly(t, typeName+"/"+g.name, orig, k)
				}
			}
		})
	}
}

func TestBucketSelectDifferentialUints(t *testing.T) {
	runDiff(t, "uint64", []struct {
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
				s[i] = uint64(r.Intn(1 + n/64))
			}
			return s
		}},
		{"lowbyteonly", func(r *rand.Rand, n int) []uint64 {
			// Constant high 7 bytes, only the low byte varies.
			s := make([]uint64, n)
			for i := range s {
				s[i] = 0xABCD_0000_0000_0000 | uint64(r.Intn(256))
			}
			return s
		}},
		{"sawtooth", func(r *rand.Rand, n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = uint64(i % 509)
			}
			return s
		}},
		{"sorted", func(r *rand.Rand, n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = uint64(i) * 7
			}
			return s
		}},
	})
	runDiff(t, "uint32", []struct {
		name string
		gen  func(r *rand.Rand, n int) []uint32
	}{
		{"random", func(r *rand.Rand, n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = r.Uint32()
			}
			return s
		}},
		{"dupheavy", func(r *rand.Rand, n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(r.Intn(1 + n/64))
			}
			return s
		}},
	})
	runDiff(t, "uint", []struct {
		name string
		gen  func(r *rand.Rand, n int) []uint
	}{
		{"random", func(r *rand.Rand, n int) []uint {
			s := make([]uint, n)
			for i := range s {
				s[i] = uint(r.Uint64())
			}
			return s
		}},
	})
}

func TestBucketSelectDifferentialInts(t *testing.T) {
	runDiff(t, "int64", []struct {
		name string
		gen  func(r *rand.Rand, n int) []int64
	}{
		{"random", func(r *rand.Rand, n int) []int64 {
			s := make([]int64, n)
			for i := range s {
				s[i] = int64(r.Uint64()) // full range, both signs
			}
			return s
		}},
		{"signstraddle", func(r *rand.Rand, n int) []int64 {
			s := make([]int64, n)
			for i := range s {
				s[i] = int64(r.Intn(2*n+1) - n)
			}
			return s
		}},
		{"extremes", func(r *rand.Rand, n int) []int64 {
			s := make([]int64, n)
			vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
			for i := range s {
				s[i] = vals[r.Intn(len(vals))]
			}
			return s
		}},
	})
	runDiff(t, "int32", []struct {
		name string
		gen  func(r *rand.Rand, n int) []int32
	}{
		{"signstraddle", func(r *rand.Rand, n int) []int32 {
			s := make([]int32, n)
			for i := range s {
				s[i] = int32(r.Intn(2*n+1) - n)
			}
			return s
		}},
	})
	runDiff(t, "int", []struct {
		name string
		gen  func(r *rand.Rand, n int) []int
	}{
		{"signstraddle", func(r *rand.Rand, n int) []int {
			s := make([]int, n)
			for i := range s {
				s[i] = r.Intn(2*n+1) - n
			}
			return s
		}},
	})
}

func TestBucketSelectDifferentialFloats(t *testing.T) {
	runDiff(t, "float64", []struct {
		name string
		gen  func(r *rand.Rand, n int) []float64
	}{
		{"random", func(r *rand.Rand, n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = (r.Float64() - 0.5) * 1e12
			}
			return s
		}},
		{"specials", func(r *rand.Rand, n int) []float64 {
			// ±0, ±Inf, denormals and sign-straddling magnitudes: all of
			// them must be ordered like <.
			vals := []float64{
				math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
				math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 2.5,
				math.MaxFloat64, math.Inf(1),
			}
			s := make([]float64, n)
			for i := range s {
				s[i] = vals[r.Intn(len(vals))]
			}
			return s
		}},
	})
	runDiff(t, "float32", []struct {
		name string
		gen  func(r *rand.Rand, n int) []float32
	}{
		{"specials", func(r *rand.Rand, n int) []float32 {
			vals := []float32{
				float32(math.Inf(-1)), -math.MaxFloat32, -3,
				float32(math.Copysign(0, -1)), 0, 3, math.MaxFloat32,
				float32(math.Inf(1)),
			}
			s := make([]float32, n)
			for i := range s {
				s[i] = vals[r.Intn(len(vals))]
			}
			return s
		}},
	})
}

// TestBucketSelectNegZeroBitsPreserved pins that Select only moves
// elements: the -0.0 population (invisible to ==) survives.
func TestBucketSelectNegZeroBitsPreserved(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 2148
	s := make([]float64, n)
	negZeros := 0
	for i := range s {
		switch r.Intn(3) {
		case 0:
			s[i] = math.Copysign(0, -1)
			negZeros++
		case 1:
			s[i] = 0
		default:
			s[i] = r.NormFloat64()
		}
	}
	Select(s, n/2)
	after := 0
	for _, v := range s {
		if v == 0 && math.Signbit(v) {
			after++
		}
	}
	if after != negZeros {
		t.Fatalf("-0.0 count changed: %d -> %d", negZeros, after)
	}
}
