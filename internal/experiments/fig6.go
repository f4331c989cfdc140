package experiments

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// Fig6 reproduces Figure 6: weak scaling of unsorted selection on the
// randomized per-PE Zipf workload of Section 10.1, selecting the k-th
// largest element for several k. The paper uses n/p = 2^28 and
// k ∈ {2^10, 2^20, 2^26}; perPE and ks scale those down proportionally.
//
// Expected shape (paper): time roughly flat or falling as p grows —
// local partitioning dominates, communication stays negligible.
func Fig6(perPE int, pList []int, ks []int64, seed int64) Table {
	t := Table{
		Title: "Figure 6 — weak scaling, unsorted selection (k-th largest)",
		Notes: fmt.Sprintf("n/p = %d per PE, per-PE randomized Zipf tails (universe ~2^%d, s ∈ [1,1.2])\n"+
			"paper: n/p = 2^28, k ∈ {2^10, 2^20, 2^26} on 1..2048 cores", perPE, logUniverse(perPE)),
		Header: append([]string{"p", "k", "wall(ms)"}, stdHeader...),
	}
	for _, p := range pList {
		locals := make([][]uint64, p)
		for r := 0; r < p; r++ {
			locals[r] = gen.SelectionInput(xrand.NewPE(seed, r), perPE, logUniverse(perPE))
		}
		n := int64(p * perPE)
		m := comm.NewMachine(comm.DefaultConfig(p))
		for _, k := range ks {
			if k >= n {
				continue
			}
			rank := n - k + 1 // k-th largest = (n-k+1)-th smallest
			meas := runMeasured(m, func(pe *comm.PE) {
				rng := xrand.NewPE(seed+17, pe.Rank())
				sel.Kth(pe, locals[pe.Rank()], rank, rng)
			})
			row := []string{fmt.Sprintf("%d", p), fmt.Sprintf("%d", k), ms(meas.wall)}
			t.Rows = append(t.Rows, append(row, stdCols(meas)...))
		}
	}
	return t
}

// logUniverse picks the Zipf universe exponent relative to the per-PE
// size. The paper pairs a 2^20-value universe with 2^26..2^28 per-PE
// inputs; what that ratio controls is the number of *distinct* keys a
// PE's aggregated sample holds (large enough that a coordinator choking
// on p aggregated tables is visible). At this repo's smaller n/p the
// same effect needs a universe of perPE/4.
func logUniverse(perPE int) int {
	l := 0
	for v := perPE; v > 1; v >>= 1 {
		l++
	}
	l -= 2
	if l < 8 {
		l = 8
	}
	return l
}
