package qsel

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// maxFuzzN caps the length of a decoded key slice.
const maxFuzzN = 1 << 15

// fuzzKeys decodes fuzz bytes into a key slice. data[0] is a mode byte,
// the rest the payload:
//
//	bits 0–1  element width 1, 2, 4 or 8 bytes (narrow widths give the
//	          duplicate-heavy inputs, width 8 raw 64-bit patterns)
//	bits 2–4  log2 of the tiling factor: the decoded base is repeated up
//	          to 128 times, so a short input reaches thousands of
//	          elements and small-period (sawtooth) inputs
//	bit 5     xor every tile with a tile-dependent constant, which breaks
//	          the period and spreads the values over the key space
//
// The length is capped at maxFuzzN elements to bound the time of one
// execution.
func fuzzKeys(data []byte) []uint64 {
	if len(data) < 2 {
		return nil
	}
	mode, payload := data[0], data[1:]
	width := 1 << (mode & 3)
	base := make([]uint64, 0, len(payload)/width)
	for ; len(payload) >= width; payload = payload[width:] {
		var buf [8]byte
		copy(buf[:], payload[:width])
		base = append(base, binary.LittleEndian.Uint64(buf[:]))
	}
	if len(base) == 0 {
		return nil
	}
	tiles := 1 << (mode >> 2 & 7)
	out := make([]uint64, 0, min(len(base)*tiles, maxFuzzN))
	for t := 0; t < tiles && len(out) < maxFuzzN; t++ {
		var x uint64
		if mode&32 != 0 {
			x = uint64(t) * 0x9e3779b97f4a7c15
		}
		for _, v := range base {
			if len(out) == maxFuzzN {
				break
			}
			out = append(out, v^x)
		}
	}
	return out
}

// fuzzFloats maps decoded keys to float64. Raw 64-bit patterns are used
// as they are (±Inf, subnormals, ±0 and NaN included); narrower keys map
// to a small grid around zero whose first two points are +0 and −0.
func fuzzFloats(keys []uint64, raw bool) []float64 {
	out := make([]float64, len(keys))
	for i, v := range keys {
		switch {
		case raw:
			out[i] = math.Float64frombits(v)
		case v == 1:
			out[i] = math.Copysign(0, -1)
		default:
			out[i] = float64(int64(v%512)-256) / 4
		}
	}
	return out
}

// oracleCase checks every exported kernel against a slices.Sort oracle:
// Select and SelectInto through diffCaseReadOnly (value, partition
// contract, multiset, src untouched), then Rank and PartitionRange
// against the sorted copy's lower and upper bounds, then SplitBand and
// Keep against PartitionRange and an input-order filter (splitBandCase).
func oracleCase[K selKey](t *testing.T, label string, orig []K, k, k2 int) {
	t.Helper()
	diffCaseReadOnly(t, label, orig, k)

	sorted := slices.Clone(orig)
	slices.Sort(sorted)
	// lower/upper: the first index with an element ≥ v resp. > v.
	lower := func(v K) int { i, _ := slices.BinarySearch(sorted, v); return i }
	upper := func(v K) int {
		i, _ := slices.BinarySearchFunc(sorted, v, func(e, v K) int {
			if e <= v {
				return -1
			}
			return 1
		})
		return i
	}

	v := sorted[k]
	below, equal := Rank(orig, v)
	if below != lower(v) || equal != upper(v)-lower(v) {
		t.Fatalf("%s n=%d: Rank(%v) = (%d, %d), want (%d, %d)", label, len(orig), v, below, equal, lower(v), upper(v)-lower(v))
	}

	lo, hi := sorted[min(k, k2)], sorted[max(k, k2)]
	s := slices.Clone(orig)
	na, nb := PartitionRange(s, lo, hi)
	if na != lower(lo) || na+nb != upper(hi) {
		t.Fatalf("%s n=%d: PartitionRange(%v, %v) = (%d, %d), want (%d, %d)", label, len(orig), lo, hi, na, nb, lower(lo), upper(hi)-lower(lo))
	}
	for i, e := range s {
		if (i < na && !(e < lo)) || (i >= na && i < na+nb && !(lo <= e && e <= hi)) || (i >= na+nb && !(e > hi)) {
			t.Fatalf("%s n=%d: PartitionRange(%v, %v) left %v at %d (bands %d, %d)", label, len(orig), lo, hi, e, i, na, nb)
		}
	}
	slices.Sort(s)
	if !slices.Equal(s, sorted) {
		t.Fatalf("%s n=%d: PartitionRange changed the multiset", label, len(orig))
	}
	splitBandCase(t, label, orig, lo, hi)
}

// FuzzSelect runs Select, SelectInto, Rank, PartitionRange, SplitBand and
// Keep on []uint64 and []float64 decoded from the fuzz bytes (see
// fuzzKeys) against a slices.Sort oracle, at the fuzzed ranks and always
// at k = 0 and k = n−1.
//
// NaN is rejected in the harness, not pinned: the package documents NaN
// keys as unsupported (see the package doc: they have no < order, so
// neither the oracle nor the partition contract is defined for them);
// inputs that decode to a NaN are skipped on the float side only.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{0, 5, 5, 5, 5, 5, 5, 5}, uint16(3), uint16(0))                                                                // all equal
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 7, 1}, uint16(2), uint16(6))                                                             // ±0 runs on the float side
	f.Add([]byte{0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint16(4), uint16(9))                                                    // duplicates
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 1, 0, 0, 0, 0, 0, 0, 0}, uint16(0), uint16(1)) // +Inf, −Inf, a subnormal
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint16(1), uint16(0))                            // a NaN and −0
	f.Add(append([]byte{0 | 7<<2}, seq(64)...), uint16(1000), uint16(5000))                                                    // period 64 × 128 tiles: sawtooth
	f.Add(append([]byte{1 | 7<<2 | 32}, seq(200)...), uint16(4097), uint16(77))                                                // spread, n = 12800
	f.Add(append([]byte{3 | 6<<2 | 32}, seq(255)...), uint16(2047), uint16(2048))                                              // raw 64-bit, n = 1984
	f.Fuzz(func(t *testing.T, data []byte, k1, k2 uint16) {
		keys := fuzzKeys(data)
		if len(keys) == 0 {
			return
		}
		n := len(keys)
		floats := fuzzFloats(keys, data[0]&3 == 3)
		hasNaN := slices.ContainsFunc(floats, func(v float64) bool { return v != v })
		for _, k := range []int{int(k1) % n, 0, n - 1} {
			oracleCase(t, "uint64", keys, k, int(k2)%n)
			if !hasNaN {
				oracleCase(t, "float64", floats, k, int(k2)%n)
			}
		}
	})
}

// seq returns the bytes 1, 2, …, n (mod 256) — a compact corpus payload.
func seq(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i + 1)
	}
	return b
}
