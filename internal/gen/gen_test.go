package gen

import (
	"math"
	"slices"
	"testing"

	"commtopk/internal/xrand"
)

func TestZipfFrequenciesFollowPowerLaw(t *testing.T) {
	const n = 1 << 10
	const draws = 2_000_000
	z := NewZipf(n, 1.0)
	rng := xrand.New(1)
	counts := make([]int64, n+1)
	for i := 0; i < draws; i++ {
		v := z.Draw(rng)
		if v < 1 || v > n {
			t.Fatalf("draw %d out of universe", v)
		}
		counts[v]++
	}
	// Rank-1 should be ~2x rank-2, ~4x rank-4, ~10x rank-10 (s=1).
	for _, r := range []int{2, 4, 10} {
		ratio := float64(counts[1]) / float64(counts[r])
		if math.Abs(ratio-float64(r))/float64(r) > 0.1 {
			t.Errorf("count(1)/count(%d) = %v, want ~%d", r, ratio, r)
		}
	}
}

func TestZipfSteeperExponentConcentrates(t *testing.T) {
	const n = 1000
	const draws = 500000
	rng := xrand.New(2)
	share := func(s float64) float64 {
		z := NewZipf(n, s)
		head := 0
		for i := 0; i < draws; i++ {
			if z.Draw(rng) == 1 {
				head++
			}
		}
		return float64(head) / draws
	}
	if s1, s2 := share(1.0), share(1.5); s2 <= s1 {
		t.Errorf("head share should grow with exponent: s=1: %v, s=1.5: %v", s1, s2)
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(1, 1.0)
	if v := z.Draw(xrand.New(3)); v != 1 {
		t.Errorf("single-object universe drew %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0) should panic")
		}
	}()
	NewZipf(0, 1)
}

func TestHarmonicGeneralized(t *testing.T) {
	// H_{4,1} = 1 + 1/2 + 1/3 + 1/4 = 25/12.
	if got := HarmonicGeneralized(4, 1); math.Abs(got-25.0/12) > 1e-12 {
		t.Errorf("H_{4,1} = %v", got)
	}
	// H_{n,2} converges to π²/6.
	if got := HarmonicGeneralized(1_000_000, 2); math.Abs(got-math.Pi*math.Pi/6) > 1e-3 {
		t.Errorf("H_{1e6,2} = %v, want ~%v", got, math.Pi*math.Pi/6)
	}
	// The Euler–Maclaurin tail must be continuous at the cutoff.
	a := HarmonicGeneralized(1<<21, 1.1)
	b := HarmonicGeneralized((1<<21)+1, 1.1)
	if b <= a || b-a > 1e-5 {
		t.Errorf("harmonic discontinuous at cutoff: %v -> %v", a, b)
	}
}

func TestZipfCount(t *testing.T) {
	// Counts must sum to n over the whole universe.
	const n, universe = 100000, 100
	var sum float64
	for i := int64(1); i <= universe; i++ {
		sum += ZipfCount(n, universe, 1.0, i)
	}
	if math.Abs(sum-n) > 1e-6*n {
		t.Errorf("Zipf counts sum to %v, want %d", sum, n)
	}
}

func TestSelectionInputProperties(t *testing.T) {
	rng := xrand.New(5)
	in := SelectionInput(rng, 10000, 14)
	if len(in) != 10000 {
		t.Fatalf("wrong length %d", len(in))
	}
	hi := 0
	for _, v := range in {
		if v < 1 || v > 1<<14 {
			t.Fatalf("value %d outside universe", v)
		}
		if v > (1<<14)*3/4 {
			hi++
		}
	}
	// High-tail inversion: most mass near the top of the range.
	if hi < len(in)/2 {
		t.Errorf("only %d/%d values in the high tail", hi, len(in))
	}
}

func TestFrequencyInput(t *testing.T) {
	z := NewZipf(1<<10, 1)
	out := FrequencyInput(xrand.New(7), z, 5000)
	if len(out) != 5000 {
		t.Fatal("wrong length")
	}
}

func TestNegBinomialInputPlateau(t *testing.T) {
	// r=1000, p=0.05: values cluster tightly around ~52.6 (wide plateau of
	// near-equal frequencies relative to Zipf).
	rng := xrand.New(9)
	in := NegBinomialInput(rng, 20000, 1000, 0.05)
	counts := map[uint64]int{}
	for _, v := range in {
		counts[v]++
	}
	if len(counts) < 20 {
		t.Errorf("negative binomial collapsed to %d distinct values", len(counts))
	}
	var mx int
	for _, c := range counts {
		if c > mx {
			mx = c
		}
	}
	// No single value should dominate (plateau property).
	if mx > len(in)/10 {
		t.Errorf("most frequent value has share %d/%d; expected a plateau", mx, len(in))
	}
}

func TestWeightedInput(t *testing.T) {
	z := NewZipf(100, 1)
	keys, values := WeightedInput(xrand.New(11), z, 1000)
	if len(keys) != 1000 || len(values) != 1000 {
		t.Fatal("wrong lengths")
	}
	for _, v := range values {
		if v < 0 {
			t.Fatal("negative value")
		}
	}
}

func TestGappedFrequenciesAndMaterialize(t *testing.T) {
	freq := GappedFrequencies(5, 100, 50, 10)
	if len(freq) != 55 {
		t.Fatalf("table size %d", len(freq))
	}
	stream := Materialize(xrand.New(13), freq)
	if len(stream) != 5*100+50*10 {
		t.Fatalf("stream length %d", len(stream))
	}
	recount := map[uint64]int64{}
	for _, x := range stream {
		recount[x]++
	}
	for k, c := range freq {
		if recount[k] != c {
			t.Errorf("object %d count %d, want %d", k, recount[k], c)
		}
	}
	// One seed, one stream: nothing of Go's map iteration order may leak
	// through the shuffle (it once did, and -exp fig5 drifted run to run).
	for i := 0; i < 5; i++ {
		if again := Materialize(xrand.New(13), freq); !slices.Equal(again, stream) {
			t.Fatalf("call %d with the same seed returned a different stream", i+2)
		}
	}
}
