// Package qsel provides expected-linear order-statistic selection,
// in-place multiway partitioning and branch-free, order-keeping band
// compaction (SplitBand, Keep, Rank) — the sort-free local kernels under
// the paper's selection algorithms. Everywhere the distributed code only needs
// an order statistic (pivot extraction from a gathered sample, the k-th
// element of a gathered residual), a full slices.Sort is Θ(n log n) local
// work the cost model charges to the x term for no benefit; Select is
// expected O(n) and allocation-free.
//
// Select uses the Floyd–Rivest SELECT strategy (recursively selecting an
// approximate pivot from a sample window around the target rank) on large
// windows, falling back to plain three-way quickselect below the sampling
// threshold. The three-way (fat-pivot) partition makes duplicate-heavy
// inputs first-class: an equal run containing the target rank terminates
// immediately instead of degrading quadratically.
//
// Keys are compared with < and == only, so ties may resolve to either
// side. −0.0 and +0.0 compare equal and either is a valid rank-k answer;
// elements are only moved, never rewritten, so a slice keeps its −0.0
// population. NaN keys are unsupported: they have no < order, so neither
// the rank nor the partition contract is defined for them.
package qsel

import (
	"cmp"
	"fmt"
	"math"
)

// Select partially rearranges s so that s[k] holds the element of rank k
// (0-based) and returns it: afterwards every element of s[:k] is ≤ s[k]
// and every element of s[k+1:] is ≥ s[k]. Expected O(len(s)) time, zero
// allocations. Panics if k is out of range.
func Select[K cmp.Ordered](s []K, k int) K {
	if k < 0 || k >= len(s) {
		panic(fmt.Sprintf("qsel: rank %d out of range [0, %d)", k, len(s)))
	}
	sel(s, 0, len(s)-1, k)
	return s[k]
}

// SelectInto returns the element of rank k (0-based) of src without
// modifying src: it copies src into dst (len(dst) ≥ len(src)) and runs
// Select there, so dst's contents are unspecified on return. Zero
// allocations.
func SelectInto[K cmp.Ordered](dst, src []K, k int) K {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("qsel: SelectInto dst len %d < src len %d", len(dst), len(src)))
	}
	d := dst[:len(src)]
	copy(d, src)
	return Select(d, k)
}

// Rank counts the elements of s strictly below v and equal to v in one
// pass — the local rank split every threshold-partition consumer (SmallestK,
// the dht top-k extraction) needs after a distributed selection. Zero
// allocations, no data-dependent branch.
func Rank[K cmp.Ordered](s []K, v K) (below, equal int) {
	for _, e := range s {
		// The increments are written as conditional moves in place: a
		// helper returning 0 or 1 is not inlined into every generic
		// instantiation, and a call per element costs more than the
		// mispredictions it removes.
		b := 0
		if e < v {
			b = 1
		}
		q := 0
		if e == v {
			q = 1
		}
		below += b
		equal += q
	}
	return below, equal
}

// SplitBand is the counting, order-keeping form of PartitionRange: in one
// pass it counts the na elements of src below lo and writes the nb
// elements in lo..hi to dst[:nb] in their order in src, and it writes
// nothing else that survives (dst[nb:len(src)] holds leftovers). src is never
// written unless dst shares its memory. dst must hold len(src) elements
// and may be src itself or start at or before src in the same array (the
// writes never overtake the reads); any other overlap with src is the
// caller's error. (na, nb) and band b's multiset are PartitionRange's.
// Every element is stored and the counters advance by 0 or 1, so there is
// no data-dependent branch. lo ≤ hi is the caller's responsibility.
func SplitBand[K cmp.Ordered](dst, src []K, lo, hi K) (na, nb int) {
	dst = dst[:len(src)]
	for _, e := range src {
		dst[nb] = e
		a := 0
		if e < lo {
			a = 1
		}
		c := 0
		if e > hi {
			c = 1
		}
		na += a
		nb += 1 - a - c
	}
	return na, nb
}

// End is the kind of one end of an Interval.
type End uint8

const (
	Unbounded End = iota // no bound on this side
	Open                 // the end value itself is outside
	Closed               // the end value itself is inside
)

// Interval is the set of keys between Lo and Hi, each end open, closed or
// absent (the value of an Unbounded end is ignored).
type Interval[K cmp.Ordered] struct {
	Lo, Hi       K
	LoEnd, HiEnd End
}

// Keep writes the elements of src inside iv to dst in their order in src
// and returns how many it wrote: SplitBand's pass with an interval of any
// ends, and no count of the elements below it. The aliasing rules are
// SplitBand's: dst holds len(src) elements and may be src itself or start
// at or before it in the same array. No data-dependent branch; an
// interval with one open end and no other (a window cut at a pivot, the
// only kind a miss or a peel compacts in place) runs a loop of one
// comparison per element.
func Keep[K cmp.Ordered](dst, src []K, iv Interval[K]) int {
	dst = dst[:len(src)]
	lo, hi := iv.Lo, iv.Hi
	j := 0
	switch {
	case iv.LoEnd == Unbounded && iv.HiEnd == Open:
		for _, e := range src {
			dst[j] = e
			d := 0
			if e < hi {
				d = 1
			}
			j += d
		}
	case iv.LoEnd == Open && iv.HiEnd == Unbounded:
		for _, e := range src {
			dst[j] = e
			d := 0
			if e > lo {
				d = 1
			}
			j += d
		}
	default:
		// An element is outside when it is below lo (or on it, if that end
		// is open), or likewise above hi; an unbounded end excludes
		// nothing.
		loOn, hiOn, loOpen, hiOpen := 0, 0, 0, 0
		if iv.LoEnd != Unbounded {
			loOn = 1
		}
		if iv.HiEnd != Unbounded {
			hiOn = 1
		}
		if iv.LoEnd == Open {
			loOpen = 1
		}
		if iv.HiEnd == Open {
			hiOpen = 1
		}
		for _, e := range src {
			dst[j] = e
			lt, eqLo, gt, eqHi := 0, 0, 0, 0
			if e < lo {
				lt = 1
			}
			if e == lo {
				eqLo = 1
			}
			if e > hi {
				gt = 1
			}
			if e == hi {
				eqHi = 1
			}
			j += 1 ^ (loOn&(lt|loOpen&eqLo) | hiOn&(gt|hiOpen&eqHi))
		}
	}
	return j
}

// sel narrows [left, right] (inclusive) until s[k] is in final position.
func sel[K cmp.Ordered](s []K, left, right, k int) {
	for right > left {
		if right-left > 600 {
			// Floyd–Rivest: recursively select within a sample window of
			// size Θ(n^(2/3)) centered (with a √-spread safety margin) on
			// where rank k is expected to land, so the next partition's
			// pivot s[k] is already a near-exact quantile.
			n := float64(right - left + 1)
			i := float64(k - left + 1)
			z := math.Log(n)
			sz := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*sz*(n-sz)/n)
			if i < n/2 {
				sd = -sd
			}
			newLeft := max(left, int(float64(k)-i*sz/n+sd))
			newRight := min(right, int(float64(k)+(n-i)*sz/n+sd))
			sel(s, newLeft, newRight, k)
		}
		pivot := s[k]
		lt, gt := partition3(s, left, right, pivot)
		switch {
		case k < lt:
			right = lt - 1
		case k > gt:
			left = gt + 1
		default:
			return // k lands inside the equal run
		}
	}
}

// partition3 rearranges s[left..right] (inclusive) into
// [ < pivot | == pivot | > pivot ] and returns the inclusive bounds
// [lt, gt] of the equal run (Dutch national flag).
func partition3[K cmp.Ordered](s []K, left, right int, pivot K) (lt, gt int) {
	lt, gt = left, right
	i := left
	for i <= gt {
		switch {
		case s[i] < pivot:
			s[i], s[lt] = s[lt], s[i]
			i++
			lt++
		case s[i] > pivot:
			s[i], s[gt] = s[gt], s[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

// PartitionRange rearranges s in place into the three bands
// [ x < lo | lo ≤ x ≤ hi | x > hi ] and returns the sizes (na, nb) of the
// first two bands: afterwards s[:na] < lo, lo ≤ s[na:na+nb] ≤ hi, and
// s[na+nb:] > hi. Single pass, zero allocations. lo ≤ hi is the caller's
// responsibility (lo == hi yields an exact three-way partition).
func PartitionRange[K cmp.Ordered](s []K, lo, hi K) (na, nb int) {
	lt, gt := 0, len(s)-1
	i := 0
	for i <= gt {
		switch {
		case s[i] < lo:
			s[i], s[lt] = s[lt], s[i]
			i++
			lt++
		case s[i] > hi:
			s[i], s[gt] = s[gt], s[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt + 1 - lt
}
