package experiments

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

// Fig5 demonstrates the Figure 5 scenario: a frequency distribution with
// a gap between the top-k head and the tail. PEC detects the gap from a
// small first sample, chooses k* just past the head, and returns a
// probably exactly correct result; on a flat distribution it falls back
// to a sampling estimate. The table contrasts both inputs and records
// the chosen k* and the realized error.
func Fig5(p int, k int, seed int64) Table {
	t := Table{
		Title: "Figure 5 — PEC on gapped vs flat frequency distributions",
		Notes: "gapped: k head objects ~80x more frequent than the tail; flat: near-uniform counts\n" +
			"PEC should be exact (ε̃=0, k* ≈ k) on the gap and degrade gracefully to a PAC estimate on flat input",
		Header: []string{"input", "algo", "exact", "k*", "sample", "eps~", "words/PE"},
	}
	type workload struct {
		name string
		freq map[uint64]int64
	}
	gapped := gen.GappedFrequencies(k, 4000, 3000, 50)
	flat := gen.GappedFrequencies(0, 0, 3000, 60) // tail only: no gap
	for _, w := range []workload{{"gapped", gapped}, {"flat", flat}} {
		stream := gen.Materialize(xrand.New(seed), w.freq)
		locals := make([][]uint64, p)
		for i, x := range stream {
			locals[i%p] = append(locals[i%p], x)
		}
		n := int64(len(stream))
		m := comm.NewMachine(comm.DefaultConfig(p))
		for _, algo := range []string{"PEC", "PAC"} {
			var res freq.Result
			meas := runMeasured(m, func(pe *comm.PE) {
				rng := xrand.NewPE(seed+7, pe.Rank())
				var r freq.Result
				params := freq.Params{K: k, Eps: 0.02, Delta: 0.01}
				if algo == "PEC" {
					r = freq.PEC(pe, locals[pe.Rank()], params, 0.05, rng)
				} else {
					r = freq.PAC(pe, locals[pe.Rank()], params, rng)
				}
				if pe.Rank() == 0 {
					res = r
				}
			})
			keys := make([]uint64, len(res.Items))
			for i, it := range res.Items {
				keys[i] = it.Key
			}
			t.Rows = append(t.Rows, []string{
				w.name, algo,
				fmt.Sprintf("%v", res.Exact),
				fmt.Sprintf("%d", res.KStar),
				fmt.Sprintf("%d", res.SampleSize),
				fmt.Sprintf("%.5f", stats.EpsTilde(w.freq, keys, n)),
				fmt.Sprintf("%d", meas.stats.MaxSentWords),
			})
		}
	}
	return t
}
