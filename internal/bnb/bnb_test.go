package bnb

import (
	"math"
	"slices"
	"testing"

	"commtopk/internal/comm"
)

func TestPrioFloatRoundTripOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e30, -5.5, -1, -1e-10, 0, 1e-10, 1, 2.5, 1e30, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a, b := PrioFromFloat(vals[i-1]), PrioFromFloat(vals[i])
		if a >= b {
			t.Errorf("order broken: Prio(%v)=%d >= Prio(%v)=%d", vals[i-1], a, vals[i], b)
		}
	}
	// Downward rounding: decoded value never exceeds the input.
	for _, v := range []float64{-1234.567, -1e-20, 0.1, 3.14159, 1e20} {
		if dec := FloatFromPrio(PrioFromFloat(v)); dec > v {
			t.Errorf("FloatFromPrio(PrioFromFloat(%v)) = %v rounds up", v, dec)
		}
	}
}

func TestSequentialKnapsackMatchesDP(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		k := RandomKnapsack(seed, 18, 50)
		obj, best, found, expanded := SolveSequential[KNode](k)
		if !found {
			t.Fatalf("seed %d: no solution found", seed)
		}
		if want := -float64(k.OptimalByDP()); obj != want {
			t.Errorf("seed %d: sequential objective %v, want %v", seed, obj, want)
		}
		if best.Level != k.NumItems() {
			t.Errorf("seed %d: best node not terminal", seed)
		}
		if expanded < 1 {
			t.Errorf("seed %d: expanded %d nodes", seed, expanded)
		}
	}
}

func TestDistributedKnapsackMatchesDP(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			k := RandomKnapsack(seed, 16, 40)
			want := -float64(k.OptimalByDP())
			m := comm.NewMachine(comm.DefaultConfig(p))
			founds := make([]bool, p)
			m.MustRun(func(pe *comm.PE) {
				res := Solve[KNode](pe, k, 99)
				if res.Objective != want {
					t.Errorf("p=%d seed=%d: objective %v, want %v", p, seed, res.Objective, want)
				}
				founds[pe.Rank()] = res.Found
				if res.Found {
					if v, ok := k.Solution(res.Best); !ok || v != res.Objective {
						t.Errorf("p=%d seed=%d: Best node inconsistent with objective", p, seed)
					}
				}
			})
			holders := 0
			for _, f := range founds {
				if f {
					holders++
				}
			}
			if holders != 1 {
				t.Errorf("p=%d seed=%d: %d PEs claim the optimum", p, seed, holders)
			}
		}
	}
}

func TestParallelExpansionOverheadBounded(t *testing.T) {
	// K = m + O(hp): parallel expansion count should stay within a small
	// multiple of sequential for these instances.
	k := RandomKnapsack(42, 20, 60)
	_, _, _, seq := SolveSequential[KNode](k)
	const p = 4
	m := comm.NewMachine(comm.DefaultConfig(p))
	var par int64
	m.MustRun(func(pe *comm.PE) {
		res := Solve[KNode](pe, k, 7)
		if pe.Rank() == 0 {
			par = res.Expanded
		}
	})
	h := int64(k.NumItems())
	if par > seq+40*h*p {
		t.Errorf("parallel expanded %d vs sequential %d (allowance %d)", par, seq, seq+40*h*p)
	}
}

func TestSolveTrivialRootSolution(t *testing.T) {
	// Zero-item knapsack: root is already terminal.
	k := NewKnapsack(nil, nil, 10)
	obj, _, found, _ := SolveSequential[KNode](k)
	if !found || obj != 0 {
		t.Errorf("trivial sequential: %v %v", obj, found)
	}
	for _, p := range []int{1, 3} {
		m := comm.NewMachine(comm.DefaultConfig(p))
		founds := make([]bool, p)
		m.MustRun(func(pe *comm.PE) {
			res := Solve[KNode](pe, k, 1)
			if res.Objective != 0 || res.Expanded != 0 || res.Iterations != 0 {
				t.Errorf("p=%d PE %d: trivial distributed result %+v", p, pe.Rank(), res)
			}
			founds[pe.Rank()] = res.Found
		})
		m.Close()
		if !founds[0] || slices.Contains(founds[1:], true) {
			t.Errorf("p=%d: root solution claimed by %v, want rank 0 only", p, founds)
		}
	}
}

func TestBoundIsAdmissible(t *testing.T) {
	// The fractional bound at the root must not exceed (in minimization,
	// must not be above) the true optimum.
	for seed := int64(1); seed <= 6; seed++ {
		k := RandomKnapsack(seed, 15, 30)
		rootBound := k.Bound(k.Root())
		opt := -float64(k.OptimalByDP())
		if rootBound > opt+1e-9 {
			t.Errorf("seed %d: root bound %v exceeds optimum %v (inadmissible)", seed, rootBound, opt)
		}
	}
}

func TestKnapsackExpand(t *testing.T) {
	k := NewKnapsack([]int64{10, 5}, []int64{4, 3}, 5)
	children := k.Expand(k.Root())
	if len(children) != 2 {
		t.Fatalf("root children = %d", len(children))
	}
	// After taking item 0 (weight 4), item 1 (weight 3) no longer fits.
	var take KNode
	for _, c := range children {
		if c.Weight > 0 {
			take = c
		}
	}
	grand := k.Expand(take)
	if len(grand) != 1 {
		t.Errorf("overweight child was generated: %v", grand)
	}
	if v, ok := k.Solution(grand[0]); !ok || v != -10 {
		t.Errorf("leaf solution = %v,%v", v, ok)
	}
}
