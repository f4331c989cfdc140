// Package stats contains the sample-size calculators and error metrics of
// Sections 7 and 8 of the paper: the Chernoff-derived PAC sampling
// probability (Equation 3), the exact-counting sample size (Lemma 10), the
// communication-optimal k* (Theorem 11), the PEC threshold (Lemma 12), the
// Zipf closed form (Theorem 14), the Hoeffding-based sum-aggregation sample
// size (Theorem 15), and the relative error ε̃ used to score results.
package stats

import (
	"cmp"
	"math"
	"slices"
)

// PACSampleSize returns the expected sample size ρn for the basic PAC
// algorithm (Equation 3):
//
//	ρn ≥ (4/ε²)·max((3/k)·ln(2n/δ), 2·ln(2k/δ))
func PACSampleSize(n int64, k int, eps, delta float64) float64 {
	a := 3.0 / float64(k) * math.Log(2*float64(n)/delta)
	b := 2 * math.Log(2*float64(k)/delta)
	return 4 / (eps * eps) * math.Max(a, b)
}

// ECSampleSize returns the expected sample size for algorithm EC when the
// kStar most frequently sampled objects are counted exactly (Lemma 10):
//
//	ρn = (2/(ε²·k*))·ln(n/δ)
func ECSampleSize(n int64, kStar int, eps, delta float64) float64 {
	return 2 / (eps * eps * float64(kStar)) * math.Log(float64(n)/delta)
}

// OptimalKStar returns the k* that minimizes total communication volume for
// algorithm EC (Theorem 11): k* = max(k, (1/ε)·sqrt(2·log p / p · ln(n/δ))).
func OptimalKStar(n int64, k int, p int, eps, delta float64) int {
	if p < 2 {
		// log p = 0 would make the volume-optimal k* collapse; a single PE
		// pays no communication, so exact counting beyond k is pointless.
		return k
	}
	v := 1 / eps * math.Sqrt(2*math.Log2(float64(p))/float64(p)*math.Log(float64(n)/delta))
	ks := int(math.Ceil(v))
	if ks < k {
		ks = k
	}
	return ks
}

// PECThreshold returns the sample-count threshold of Lemma 12: k* must be
// chosen so that the k*-th largest sample count is at most
//
//	E[ŝ_k] − sqrt(2·E[ŝ_k]·ln(k/δ))
//
// where E[ŝ_k] = ρ0·x_k is estimated from the first sample.
func PECThreshold(expectedSk float64, k int, delta float64) float64 {
	if expectedSk <= 0 {
		return 0
	}
	return expectedSk - math.Sqrt(2*expectedSk*math.Log(float64(k)/delta))
}

// PECKStarFromSample chooses k* from the (descending) sample counts of the
// first-stage sample: the smallest k* ≥ k such that counts[k*-1] (the
// k*-th largest) is below the Lemma 12 threshold. Returns k* and ok=false
// if no such k* exists within the sampled objects (distribution has no
// usable gap).
func PECKStarFromSample(countsDesc []int64, k int, delta float64) (int, bool) {
	if len(countsDesc) < k || k < 1 {
		return 0, false
	}
	// High-probability lower bound on E[ŝ_k] from the observed ŝ_k
	// (Theorem 13): E[ŝ_k] ≥ ŝ_k − sqrt(2·ŝ_k·ln(1/δ)).
	sk := float64(countsDesc[k-1])
	esk := sk - math.Sqrt(2*sk*math.Log(1/delta))
	thr := PECThreshold(esk, k, delta)
	if thr <= 0 {
		return 0, false
	}
	for ks := k; ks <= len(countsDesc); ks++ {
		if float64(countsDesc[ks-1]) <= thr {
			return ks, true
		}
	}
	return 0, false
}

// ZipfPECSampleSize returns the Theorem 14 sample size for a probably
// exactly correct result under Zipf(s) inputs: ρn = 4·k^s·H_{n,s}·ln(k/δ).
// hns is the generalized harmonic number H_{universe,s}.
func ZipfPECSampleSize(k int, s float64, hns float64, delta float64) float64 {
	return 4 * math.Pow(float64(k), s) * hns * math.Log(float64(k)/delta)
}

// SumAggSampleSize returns the Theorem 15 sample size for top-k sum
// aggregation: s ≥ (1/ε)·sqrt(2p·ln(2n/δ)).
func SumAggSampleSize(n int64, p int, eps, delta float64) float64 {
	return 1 / eps * math.Sqrt(2*float64(p)*math.Log(2*float64(n)/delta))
}

// EpsTilde computes the paper's relative error ε̃ for a frequent-objects
// result: the count of the most frequent object that was *not* output
// minus the count of the least frequent object that *was* output, divided
// by n; 0 if the result is exact (Section 7, error definition).
//
// exact maps every object to its true count; output is the returned top-k
// key set; n is the input size.
func EpsTilde(exact map[uint64]int64, output []uint64, n int64) float64 {
	if len(output) == 0 {
		return 0
	}
	out := make(map[uint64]bool, len(output))
	minOut := int64(math.MaxInt64)
	for _, k := range output {
		out[k] = true
		c := exact[k]
		if c < minOut {
			minOut = c
		}
	}
	maxMissed := int64(0)
	for k, c := range exact {
		if !out[k] && c > maxMissed {
			maxMissed = c
		}
	}
	if maxMissed <= minOut {
		return 0
	}
	return float64(maxMissed-minOut) / float64(n)
}

// TopKOf returns the keys of the k largest counts in a frequency table
// (ties broken by smaller key for determinism) — the ground truth used to
// score approximate results.
func TopKOf(exact map[uint64]int64, k int) []uint64 {
	type kc struct {
		key uint64
		c   int64
	}
	all := make([]kc, 0, len(exact))
	for key, c := range exact {
		all = append(all, kc{key, c})
	}
	slices.SortFunc(all, func(a, b kc) int {
		return cmp.Or(cmp.Compare(b.c, a.c), cmp.Compare(a.key, b.key))
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].key
	}
	return out
}

// Count builds the exact frequency table of a stream.
func Count(stream []uint64) map[uint64]int64 {
	m := make(map[uint64]int64)
	for _, x := range stream {
		m[x]++
	}
	return m
}

// MergeCounts adds src counts into dst.
func MergeCounts(dst, src map[uint64]int64) {
	for k, c := range src {
		dst[k] += c
	}
}
