package experiments

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/xrand"
)

// freqAlgos are the four contenders of Figures 7 and 8.
var freqAlgos = []struct {
	name string
	run  func(pe *comm.PE, local []uint64, p freq.Params, rng *xrand.RNG) freq.Result
}{
	{"PAC", freq.PAC},
	{"EC", freq.EC},
	{"Naive", freq.Naive},
	{"NaiveTree", freq.NaiveTree},
}

// Fig7 reproduces Figures 7a/7b: weak scaling of the top-32 most frequent
// objects, Zipf(1) over a 2^20-scaled universe, comparing PAC, EC, Naive
// and Naive Tree at moderate accuracy.
//
// Expected shape (paper): Naive degrades with p (coordinator receives p−1
// messages); Naive Tree flat but above PAC; PAC scales nearly perfectly;
// EC pays a constant exact-counting overhead that dominates at this ε.
func Fig7(perPE int, pList []int, k int, eps, delta float64, seed int64) Table {
	t := Table{
		Title: fmt.Sprintf("Figure 7 — weak scaling, top-%d most frequent objects (ε=%g, δ=%g)", k, eps, delta),
		Notes: fmt.Sprintf("n/p = %d per PE, Zipf(1) universe 2^%d\n"+
			"paper: n/p ∈ {2^26, 2^28}, ε=3e-4, δ=1e-4 (ε rescaled for the smaller n; same sampling regime)",
			perPE, logUniverse(perPE)),
		Header: append([]string{"p", "algo", "wall(ms)", "sample"}, stdHeader...),
	}
	params := freq.Params{K: k, Eps: eps, Delta: delta}
	for _, p := range pList {
		z := gen.NewZipf(1<<logUniverse(perPE), 1)
		locals := make([][]uint64, p)
		for r := 0; r < p; r++ {
			locals[r] = gen.FrequencyInput(xrand.NewPE(seed, r), z, perPE)
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		for _, a := range freqAlgos {
			var sample int64
			meas := runMeasured(m, func(pe *comm.PE) {
				res := a.run(pe, locals[pe.Rank()], params, xrand.NewPE(seed+31, pe.Rank()))
				if pe.Rank() == 0 {
					sample = res.SampleSize
				}
			})
			row := []string{
				fmt.Sprintf("%d", p), a.name, ms(meas.wall), fmt.Sprintf("%d", sample),
			}
			t.Rows = append(t.Rows, append(row, stdCols(meas)...))
		}
	}
	return t
}

// Fig8 reproduces Figure 8: the same contest under accuracy so strict
// that sampling collapses for every algorithm except EC (whose sample
// size is linear, not quadratic, in 1/ε).
//
// Expected shape (paper): PAC/Naive/NaiveTree must process the entire
// input; EC is consistently fastest because only it may still sample.
func Fig8(perPE int, pList []int, k int, eps, delta float64, seed int64) Table {
	t := Fig7(perPE, pList, k, eps, delta, seed)
	t.Title = fmt.Sprintf("Figure 8 — weak scaling, top-%d most frequent, strict accuracy (ε=%g, δ=%g)", k, eps, delta)
	t.Notes = fmt.Sprintf("n/p = %d per PE, Zipf(1) universe 2^%d\n"+
		"paper: ε=1e-6, δ=1e-8 at n/p=2^28 — at this repo's scale the same regime (PAC sample ≥ n, EC sample ≪ n)\n"+
		"is reached at the ε shown above; only EC can still sample", perPE, logUniverse(perPE))
	return t
}
