// Package gen produces the synthetic workloads of the paper's evaluation
// (Section 10): Zipf-distributed object streams, the per-PE randomized
// Zipf inputs of Section 10.1, negative-binomial frequency workloads,
// weighted keys for sum aggregation, and multicriteria score lists.
package gen

import (
	"math"
	"slices"

	"commtopk/internal/xrand"
)

// Zipf samples ranks 1..N with P(i) ∝ i^{-s} using a precomputed alias
// table (Vose), so sampling is O(1) per draw after O(N) setup.
type Zipf struct {
	n     int
	alias []int32
	prob  []float64
}

// NewZipf builds a Zipf(s) sampler over the universe 1..n.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic("gen: Zipf universe must be >= 1")
	}
	w := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	z := &Zipf{n: n, alias: make([]int32, n), prob: make([]float64, n)}
	// Vose alias method.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		scaled[i] = w[i] * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s0 := small[len(small)-1]
		small = small[:len(small)-1]
		l0 := large[len(large)-1]
		large = large[:len(large)-1]
		z.prob[s0] = scaled[s0]
		z.alias[s0] = l0
		scaled[l0] = scaled[l0] + scaled[s0] - 1
		if scaled[l0] < 1 {
			small = append(small, l0)
		} else {
			large = append(large, l0)
		}
	}
	for _, i := range large {
		z.prob[i] = 1
	}
	for _, i := range small {
		z.prob[i] = 1
	}
	return z
}

// N returns the universe size.
func (z *Zipf) N() int { return z.n }

// Draw returns a rank in 1..N (1 = most frequent).
func (z *Zipf) Draw(rng *xrand.RNG) uint64 {
	i := rng.Intn(z.n)
	if rng.Float64() < z.prob[i] {
		return uint64(i + 1)
	}
	return uint64(z.alias[i] + 1)
}

// Fill fills out with Zipf draws.
func (z *Zipf) Fill(rng *xrand.RNG, out []uint64) {
	for i := range out {
		out[i] = z.Draw(rng)
	}
}

// HarmonicGeneralized returns H_{n,s} = Σ_{i=1..n} i^{-s}. Exact summation
// up to the cutoff, Euler–Maclaurin tail beyond it.
func HarmonicGeneralized(n int64, s float64) float64 {
	const cutoff = 1 << 21
	if n <= cutoff {
		var h float64
		for i := int64(1); i <= n; i++ {
			h += math.Pow(float64(i), -s)
		}
		return h
	}
	h := HarmonicGeneralized(cutoff, s)
	// ∫_{cutoff}^{n} x^-s dx + midpoint corrections.
	a, b := float64(cutoff), float64(n)
	if s == 1 {
		h += math.Log(b) - math.Log(a)
	} else {
		h += (math.Pow(b, 1-s) - math.Pow(a, 1-s)) / (1 - s)
	}
	h += 0.5 * (math.Pow(b, -s) - math.Pow(a, -s))
	return h
}

// ZipfCount returns the expected count x_i = n·i^{-s}/H_{N,s} of the rank-i
// object in a length-n Zipf(s) stream over universe N (paper Section 7.3).
func ZipfCount(n int64, universe int64, s float64, i int64) float64 {
	return float64(n) * math.Pow(float64(i), -s) / HarmonicGeneralized(universe, s)
}

// SelectionInput generates the Section 10.1 workload for one PE: values
// from the high tail of a Zipf distribution where the universe size is
// drawn uniformly from [2^logU − 2^(logU−4), 2^logU] and the exponent s
// uniformly from [1, 1.2], so the input is asymmetric across PEs without
// becoming a single-PE local problem.
func SelectionInput(rng *xrand.RNG, perPE int, logU int) []uint64 {
	if logU < 5 {
		logU = 5
	}
	uMax := int64(1) << logU
	uMin := uMax - uMax/16
	universe := uMin + rng.Int63n(uMax-uMin+1)
	s := 1 + 0.2*rng.Float64()
	z := NewZipf(int(universe), s)
	out := make([]uint64, perPE)
	for i := range out {
		// High tail: larger values are rarer; invert the rank so that
		// "largest" elements are the interesting selection targets.
		out[i] = uint64(universe) - z.Draw(rng) + 1
	}
	return out
}

// FrequencyInput generates the Section 10.2 workload for one PE: perPE
// objects drawn from a Zipf(s) distribution over a universe of size
// universe (the paper uses 2^20 possible values, s = 1).
func FrequencyInput(rng *xrand.RNG, z *Zipf, perPE int) []uint64 {
	out := make([]uint64, perPE)
	z.Fill(rng, out)
	return out
}

// NegBinomialInput generates the alternative Section 10.2 workload: object
// IDs drawn from a negative binomial distribution with r failures and
// success probability p — a wide plateau of near-equal frequencies.
func NegBinomialInput(rng *xrand.RNG, perPE int, r float64, p float64) []uint64 {
	out := make([]uint64, perPE)
	for i := range out {
		out[i] = uint64(rng.NegBinomial(r, p))
	}
	return out
}

// WeightedInput generates (key, value) pairs for sum aggregation: keys
// Zipf-distributed, values exponential-ish magnitudes so sums differ from
// plain frequencies.
func WeightedInput(rng *xrand.RNG, z *Zipf, perPE int) (keys []uint64, values []float64) {
	keys = make([]uint64, perPE)
	values = make([]float64, perPE)
	for i := range keys {
		keys[i] = z.Draw(rng)
		values[i] = -math.Log(1 - rng.Float64()) // Exp(1)
	}
	return keys, values
}

// GappedFrequencies builds a frequency table with an explicit gap for the
// PEC experiments (Figure 5): the k head objects each occur headCount
// times, the remaining tail objects occur tailCount times each
// (headCount >> tailCount creates the exploitable gap).
func GappedFrequencies(k int, headCount int, tailObjects int, tailCount int) map[uint64]int64 {
	freq := make(map[uint64]int64, k+tailObjects)
	for i := 0; i < k; i++ {
		freq[uint64(i+1)] = int64(headCount)
	}
	for i := 0; i < tailObjects; i++ {
		freq[uint64(k+i+1)] = int64(tailCount)
	}
	return freq
}

// Materialize expands a frequency table into a shuffled object stream.
// Keys are expanded in ascending order before the seeded shuffle, so the
// stream is a function of (rng, freq) alone, not of Go's map order.
func Materialize(rng *xrand.RNG, freq map[uint64]int64) []uint64 {
	var total int64
	keys := make([]uint64, 0, len(freq))
	for k, c := range freq {
		keys = append(keys, k)
		total += c
	}
	slices.Sort(keys)
	out := make([]uint64, 0, total)
	for _, k := range keys {
		for c := freq[k]; c > 0; c-- {
			out = append(out, k)
		}
	}
	// Fisher–Yates shuffle.
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
