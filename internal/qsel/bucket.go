// Bucket select: the histogram kernels behind the large-n selection paths.
//
// Both engines run on machine words obtained through an order-preserving
// key transform (uints pass through; ints get the sign-bit flip, floats the
// standard IEEE-754 monotone flip) and narrow to the rank-k element byte by
// byte: one counting pass over 256 radix buckets of the current
// most-significant differing byte (the &0xff-masked index lets the
// compiler drop the bounds check), a prefix sum to locate the bucket
// holding rank k, then a single narrowing pass that keeps that bucket only.
// An or/and fold of the window (seeded during the narrowing pass) skips
// byte levels that are constant across the window, so duplicate-heavy and
// small-valued inputs do not pay for dead bytes.
//
// The two engines differ in the narrowing pass, because the two exported
// entry points make different promises:
//
//   - Select promises the full partition contract (s[:k] ≤ s[k] ≤ s[k+1:]),
//     so its engine narrows with an in-place three-way partition around the
//     target byte. That pass carries the same ~50% unpredictable branches
//     as a comparison partition, so the engine only beats Floyd–Rivest
//     while the slice is cache-resident: Select routes through it in the
//     [BucketMinN, BucketMaxInPlaceN] window and uses scalar Floyd–Rivest
//     outside (measured crossovers; bench/'s qsel.* probes time the kernels).
//
//   - SelectInto promises only the rank-k value (src is read-only, dst is
//     workspace), so its engine narrows with a compress: copy the target
//     bucket to the front of the workspace with a branch that is taken only
//     for bucket members (~1/256 on spread data — essentially free after
//     the predictor locks on), and recurse inside the workspace. No
//     unpredictable branches, no swap traffic, ~3 word-streaming passes
//     total; this is the kernel that wins at memory scale and the one the
//     distributed pipelines' value-only call sites use.
//
// The transform is a monotone bijection, so narrowing in the transformed
// domain and inverting yields answers under the native < order (ties may
// resolve to either side, exactly as with the comparison-based path).
// -0.0 and +0.0 map to adjacent transformed keys with -0.0 first; they
// compare equal under <, so either is a valid rank-k answer. NaNs, which
// have no < order, are unsupported (the comparison path also returns
// arbitrary results for NaN).
package qsel

import (
	"cmp"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// BucketMinN is the lower crossover: selections over fewer elements (or
// unsupported key types) use scalar Floyd–Rivest. Below ~2k elements the
// counting pass cannot amortize its fixed 2 KiB histogram zeroing and the
// fold pass.
const BucketMinN = 2048

// BucketMaxInPlaceN is the upper crossover for the in-place (partitioning)
// engine only: above it the slice leaves cache and the extra full-width
// count pass costs more than the branch misses it saves, so Select falls
// back to Floyd–Rivest. SelectInto's compress engine has no upper bound —
// it replaces the unpredictable partition branches rather than adding to
// them, so it keeps winning as n grows.
const BucketMaxInPlaceN = 1 << 15

// bucketLeafN is the window size below which a level finishes with scalar
// Floyd–Rivest instead of another counting pass (same rationale as
// BucketMinN, but intra-recursion: the window is already cache-resident).
const bucketLeafN = 600

// bucketSelects counts calls served by either bucket engine — the CI guard
// asserts this advances for large supported inputs (counter-based, not
// timing-based). Atomic: PEs select concurrently.
var bucketSelects atomic.Int64

// BucketSelects returns the number of Select/SelectInto calls that were
// served by a bucket engine since process start.
func BucketSelects() int64 { return bucketSelects.Load() }

const (
	sign64 = uint64(1) << 63
	sign32 = uint32(1) << 31
)

// flipF64 maps float64 bits to monotone uint64: order of the transformed
// words equals the < order of the floats (with -0.0 just below +0.0).
func flipF64(v uint64) uint64 {
	mask := uint64(int64(v) >> 63) // all ones iff sign bit set
	return v ^ (mask | sign64)
}

// unflipF64 inverts flipF64.
func unflipF64(v uint64) uint64 {
	mask := uint64(int64(^v) >> 63) // all ones iff transformed sign bit clear
	return v ^ (mask | sign64)
}

func flipF32(v uint32) uint32 {
	mask := uint32(int32(v) >> 31)
	return v ^ (mask | sign32)
}

func unflipF32(v uint32) uint32 {
	mask := uint32(int32(^v) >> 31)
	return v ^ (mask | sign32)
}

// uword is the word domain the engines run on after the key transform.
type uword interface{ ~uint32 | ~uint64 }

// ---------------------------------------------------------------------------
// In-place engine (full partition contract) — Select's bucket path.
// ---------------------------------------------------------------------------

// bucketSelect reinterprets s as transformed machine words and runs the
// in-place bucket engine when K is a supported fixed-width numeric type.
// It reports whether it handled the call; false means the caller must use
// the scalar path. len(s) must be > 0.
func bucketSelect[K cmp.Ordered](s []K, k int) bool {
	p := unsafe.Pointer(&s[0])
	switch any((*K)(nil)).(type) {
	case *uint64:
		bucketSelectU(unsafe.Slice((*uint64)(p), len(s)), k)
	case *uint:
		if unsafe.Sizeof(uint(0)) != 8 {
			return false
		}
		bucketSelectU(unsafe.Slice((*uint64)(p), len(s)), k)
	case *uintptr:
		if unsafe.Sizeof(uintptr(0)) != 8 {
			return false
		}
		bucketSelectU(unsafe.Slice((*uint64)(p), len(s)), k)
	case *int64:
		u := unsafe.Slice((*uint64)(p), len(s))
		for i := range u {
			u[i] ^= sign64
		}
		bucketSelectU(u, k)
		for i := range u {
			u[i] ^= sign64
		}
	case *int:
		if unsafe.Sizeof(int(0)) != 8 {
			return false
		}
		u := unsafe.Slice((*uint64)(p), len(s))
		for i := range u {
			u[i] ^= sign64
		}
		bucketSelectU(u, k)
		for i := range u {
			u[i] ^= sign64
		}
	case *float64:
		u := unsafe.Slice((*uint64)(p), len(s))
		for i := range u {
			u[i] = flipF64(u[i])
		}
		bucketSelectU(u, k)
		for i := range u {
			u[i] = unflipF64(u[i])
		}
	case *uint32:
		bucketSelectU(unsafe.Slice((*uint32)(p), len(s)), k)
	case *int32:
		u := unsafe.Slice((*uint32)(p), len(s))
		for i := range u {
			u[i] ^= sign32
		}
		bucketSelectU(u, k)
		for i := range u {
			u[i] ^= sign32
		}
	case *float32:
		u := unsafe.Slice((*uint32)(p), len(s))
		for i := range u {
			u[i] = flipF32(u[i])
		}
		bucketSelectU(u, k)
		for i := range u {
			u[i] = unflipF32(u[i])
		}
	default:
		return false
	}
	bucketSelects.Add(1)
	return true
}

// bucketSelectU places the rank-k word of s into s[k] with everything
// smaller to its left and everything larger to its right. The window
// [lo, hi) always contains rank k and every element outside it is already
// on its final side.
func bucketSelectU[U uword](s []U, k int) {
	lo, hi := 0, len(s)
	// Initial or/and fold locates the most-significant byte that actually
	// varies; subsequent folds ride along with the partition pass.
	var orv, andv U = 0, ^U(0)
	for _, v := range s {
		orv |= v
		andv &= v
	}
	for {
		if hi-lo <= bucketLeafN {
			sel(s, lo, hi-1, k)
			return
		}
		diff := orv ^ andv
		if diff == 0 {
			return // window is one repeated value; s[k] already final
		}
		shift := uint(63-bits.LeadingZeros64(uint64(diff))) &^ 7

		// Counting pass over 256 buckets of the current byte.
		var counts [256]int
		win := s[lo:hi]
		for _, v := range win {
			counts[(v>>shift)&0xff]++
		}

		// Prefix-sum walk to the bucket holding rank k.
		r := k - lo
		b, before := 0, 0
		for {
			c := counts[b]
			if r < before+c {
				break
			}
			before += c
			b++
		}

		// In-place three-way partition of the window around byte value b,
		// folding or/and of the kept (== b) band for the next level's
		// varying-byte detection. The byte at shift varies across the
		// window (diff selected it), so the window strictly shrinks.
		tb := U(b)
		lt, i, gt := lo, lo, hi-1
		var o U = 0
		a := ^U(0)
		for i <= gt {
			v := s[i]
			c := (v >> shift) & 0xff
			switch {
			case c < tb:
				s[i], s[lt] = s[lt], v
				i++
				lt++
			case c > tb:
				s[i], s[gt] = s[gt], v
				gt--
			default:
				o |= v
				a &= v
				i++
			}
		}
		lo, hi = lt, gt+1
		orv, andv = o, a
	}
}

// ---------------------------------------------------------------------------
// Compress engine (value only) — SelectInto's bucket path.
// ---------------------------------------------------------------------------

// bucketSelectInto answers rank k of src via the compress engine when K is
// a supported fixed-width numeric type, writing only into dst (len(dst) ≥
// len(src); contents unspecified afterwards) and never into src. ok=false
// means the caller must use the scalar path. len(src) must be > 0.
func bucketSelectInto[K cmp.Ordered](dst, src []K, k int) (res K, ok bool) {
	ps := unsafe.Pointer(&src[0])
	pd := unsafe.Pointer(&dst[0])
	n := len(src)
	switch any((*K)(nil)).(type) {
	case *uint64, *uint, *uintptr, *int64, *int:
		if unsafe.Sizeof(src[0]) != 8 {
			return res, false // 32-bit platform uint/int: no transform entry
		}
		var x uint64
		switch any((*K)(nil)).(type) {
		case *int64, *int:
			x = sign64
		}
		d := unsafe.Slice((*uint64)(pd), n)
		s := unsafe.Slice((*uint64)(ps), n)
		v := selectValue64(d, prepXor64(d, s, x), k) ^ x
		res = *(*K)(unsafe.Pointer(&v))
	case *float64:
		d := unsafe.Slice((*uint64)(pd), n)
		s := unsafe.Slice((*uint64)(ps), n)
		v := unflipF64(selectValue64(d, prepFlip64(d, s), k))
		res = *(*K)(unsafe.Pointer(&v))
	case *uint32, *int32:
		var x uint32
		if _, isInt := any((*K)(nil)).(*int32); isInt {
			x = sign32
		}
		d := unsafe.Slice((*uint32)(pd), n)
		s := unsafe.Slice((*uint32)(ps), n)
		v := selectValue32(d, prepXor32(d, s, x), k) ^ x
		res = *(*K)(unsafe.Pointer(&v))
	case *float32:
		d := unsafe.Slice((*uint32)(pd), n)
		s := unsafe.Slice((*uint32)(ps), n)
		v := unflipF32(selectValue32(d, prepFlip32(d, s), k))
		res = *(*K)(unsafe.Pointer(&v))
	default:
		return res, false
	}
	bucketSelects.Add(1)
	return res, true
}

// prepState is pass 0's fused output: the or/and fold of the transformed
// words plus whether they were already ascending (rank order known).
type prepState[U uword] struct {
	orv, andv U
	asc       bool
}

// prepXor64 fills dst with src^x while folding or/and and detecting
// sortedness — transform, fold and copy in one streaming pass.
func prepXor64(dst, src []uint64, x uint64) prepState[uint64] {
	var orv uint64
	andv := ^uint64(0)
	asc := true
	prev := src[0] ^ x
	for i, v := range src {
		u := v ^ x
		dst[i] = u
		orv |= u
		andv &= u
		asc = asc && u >= prev
		prev = u
	}
	return prepState[uint64]{orv, andv, asc}
}

func prepFlip64(dst, src []uint64) prepState[uint64] {
	var orv uint64
	andv := ^uint64(0)
	asc := true
	prev := flipF64(src[0])
	for i, v := range src {
		u := flipF64(v)
		dst[i] = u
		orv |= u
		andv &= u
		asc = asc && u >= prev
		prev = u
	}
	return prepState[uint64]{orv, andv, asc}
}

func prepXor32(dst, src []uint32, x uint32) prepState[uint32] {
	var orv uint32
	andv := ^uint32(0)
	asc := true
	prev := src[0] ^ x
	for i, v := range src {
		u := v ^ x
		dst[i] = u
		orv |= u
		andv &= u
		asc = asc && u >= prev
		prev = u
	}
	return prepState[uint32]{orv, andv, asc}
}

func prepFlip32(dst, src []uint32) prepState[uint32] {
	var orv uint32
	andv := ^uint32(0)
	asc := true
	prev := flipF32(src[0])
	for i, v := range src {
		u := flipF32(v)
		dst[i] = u
		orv |= u
		andv &= u
		asc = asc && u >= prev
		prev = u
	}
	return prepState[uint32]{orv, andv, asc}
}

func selectValue64(dst []uint64, st prepState[uint64], k int) uint64 {
	return selectValueU(dst, st, k)
}

func selectValue32(dst []uint32, st prepState[uint32], k int) uint32 {
	return selectValueU(dst, st, k)
}

// selectValueU returns the rank-k word of the transformed window in dst.
// Every level compresses the target bucket to the front of the window — an
// in-buffer compress is safe because the write cursor never passes the
// read cursor.
func selectValueU[U uword](dst []U, st prepState[U], k int) U {
	if st.asc {
		return dst[k] // already in rank order; the transform preserved it
	}
	orv, andv := st.orv, st.andv
	win := dst
	for {
		if len(win) <= bucketLeafN {
			sel(win, 0, len(win)-1, k)
			return win[k]
		}
		diff := orv ^ andv
		if diff == 0 {
			return win[0] // window is one repeated value
		}
		topbit := 63 - bits.LeadingZeros64(uint64(diff))

		// Narrow-range refinement: when at most ~2 bytes still vary and the
		// window is large, one 2^16-bucket level resolves (nearly) the whole
		// remaining value in a single count+compress instead of two 8-bit
		// levels — this is what keeps duplicate-heavy and sawtooth inputs,
		// whose value range is far below the key width, at ~3 passes total.
		var shift uint
		var mask U
		if len(win) >= 1<<16 && topbit >= 8 && topbit <= 16 {
			shift = uint(max(topbit-15, 0))
			mask = U(0xffff)
		} else {
			shift = uint(topbit) &^ 7
			mask = U(0xff)
		}

		var b, before int
		if mask == 0xffff {
			b, before = bucketOf16(win, shift, k)
		} else {
			b, before = bucketOf8(win, shift, k)
		}

		// Compress the target bucket to the front of the window. The
		// unconditional store plus conditional advance keeps the loop free
		// of swap traffic, and the branch is taken only for bucket members,
		// so the predictor tracks it. An in-buffer compress is safe: the
		// write cursor never passes the read cursor.
		tb := U(b)
		w := 0
		var o U = 0
		a := ^U(0)
		for _, v := range win {
			win[w] = v
			if (v>>shift)&mask == tb {
				w++
				o |= v
				a &= v
			}
		}
		win = win[:w]
		k -= before
		orv, andv = o, a
	}
}

// bucketOf8 histograms the byte at shift and returns the bucket holding
// rank r plus the element count before it.
func bucketOf8[U uword](win []U, shift uint, r int) (b, before int) {
	var counts [256]int
	for _, v := range win {
		counts[(v>>shift)&0xff]++
	}
	for {
		c := counts[b]
		if r < before+c {
			return b, before
		}
		before += c
		b++
	}
}

// counts16Pool recycles the 2^16-bucket histograms: 256 KiB is over the
// compiler's stack-variable limit ("too large for stack"), so a plain
// local would heap-allocate on every narrow-range level. The level only
// runs on windows ≥ 2^16 elements, so the clear-on-return is < 7% of the
// counting pass it enables.
var counts16Pool = sync.Pool{New: func() any { return new([1 << 16]int32) }}

// bucketOf16 is bucketOf8 with 2^16 buckets of the 16-bit slice at shift.
func bucketOf16[U uword](win []U, shift uint, r int) (b, before int) {
	counts := counts16Pool.Get().(*[1 << 16]int32)
	for _, v := range win {
		counts[(v>>shift)&0xffff]++
	}
	for {
		c := int(counts[b])
		if r < before+c {
			clear(counts[:])
			counts16Pool.Put(counts)
			return b, before
		}
		before += c
		b++
	}
}
