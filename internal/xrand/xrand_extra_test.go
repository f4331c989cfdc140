package xrand

import (
	"math"
	"testing"
)

func TestBernoulliRate(t *testing.T) {
	r := New(31)
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const trials = 100000
		for i := 0; i < trials; i++ {
			if r.Bernoulli(rho) {
				hits++
			}
		}
		if got := float64(hits) / trials; math.Abs(got-rho) > 0.01 {
			t.Errorf("Bernoulli(%v) rate %v", rho, got)
		}
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) fired")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(>1) must always fire")
	}
}

// SeedPE on a used stream held by value restarts it exactly where NewPE
// starts, without allocating.
func TestSeedPEMatchesNewPE(t *testing.T) {
	var r RNG
	for _, c := range []struct {
		seed int64
		rank int
	}{{0, 0}, {1, 0}, {1, 63}, {-7, 5}, {1 << 40, 1 << 20}} {
		r.Uint64()
		r.SeedPE(c.seed, c.rank)
		want := NewPE(c.seed, c.rank)
		for i := 0; i < 4; i++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("SeedPE(%d, %d) draw %d = %#x, NewPE gives %#x", c.seed, c.rank, i, got, w)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { r.SeedPE(9, 3) }); a != 0 {
		t.Errorf("SeedPE allocates %.0f/op", a)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(33)
	for _, bad := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) should panic", bad)
				}
			}()
			r.Intn(bad)
		}()
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	r := New(34)
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) should panic")
		}
	}()
	r.Int63n(0)
}

func TestGammaPanicsOnNonPositiveShape(t *testing.T) {
	r := New(35)
	defer func() {
		if recover() == nil {
			t.Error("Gamma(0) should panic")
		}
	}()
	r.Gamma(0)
}

func TestNegBinomialEdges(t *testing.T) {
	r := New(36)
	if v := r.NegBinomial(10, 0); v != 0 {
		t.Errorf("NegBinomial(p=0) = %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("NegBinomial(p=1) should panic")
		}
	}()
	r.NegBinomial(10, 1)
}

func TestPoissonZero(t *testing.T) {
	r := New(37)
	if v := r.Poisson(0); v != 0 {
		t.Errorf("Poisson(0) = %d", v)
	}
	if v := r.Poisson(-3); v != 0 {
		t.Errorf("Poisson(<0) = %d", v)
	}
}

func TestGeometricVariance(t *testing.T) {
	// Var of geometric(ρ) is (1−ρ)/ρ²; check within 10% at ρ=0.2.
	r := New(38)
	const rho = 0.2
	const trials = 300000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		g := float64(r.Geometric(rho))
		sum += g
		sumSq += g * g
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	want := (1 - rho) / (rho * rho)
	if math.Abs(variance-want)/want > 0.1 {
		t.Errorf("geometric variance %v, want ~%v", variance, want)
	}
}
