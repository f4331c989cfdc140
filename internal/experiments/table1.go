package experiments

import (
	"fmt"
	"math"
	"slices"

	"commtopk/internal/agg"
	"commtopk/internal/bpq"
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/mtopk"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// Table1 validates the paper's headline complexity table: for every
// problem it measures the bottleneck communication volume (β-term) and
// startup count (α-term) of the new algorithm, next to the "old"
// baseline where the paper lists one, at a fixed PE count. The stated
// bound is reproduced as a formula with its numeric value at the chosen
// parameters, so sublinearity is visible directly.
func Table1(p int, perPE int, k int, seed int64) Table {
	t := Table{
		Title: fmt.Sprintf("Table 1 — measured bottleneck communication vs stated bounds (p=%d, n/p=%d, k=%d)", p, perPE, k),
		Notes: "words/PE = max over PEs of words sent; start/PE = max messages sent\n" +
			"old baselines: unsorted selection = random redistribution first [31]; frequent objects = Naive coordinator",
		Header: []string{"problem", "variant", "words/PE", "start/PE", "bound (β-term)", "n/p"},
	}
	logp := math.Log2(float64(p))
	n := int64(p * perPE)

	addRow := func(problem, variant string, meas *measurement, bound string) {
		t.Rows = append(t.Rows, []string{
			problem, variant,
			fmt.Sprintf("%d", meas.stats.MaxSentWords),
			fmt.Sprintf("%d", meas.stats.MaxSends),
			bound,
			fmt.Sprintf("%d", perPE),
		})
	}

	// --- Unsorted selection --------------------------------------------
	{
		locals := make([][]uint64, p)
		for r := 0; r < p; r++ {
			locals[r] = gen.SelectionInput(xrand.NewPE(seed, r), perPE, 16)
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			sel.Kth(pe, locals[pe.Rank()], n/2, xrand.NewPE(seed+1, pe.Rank()))
		})
		bound := fmt.Sprintf("min(√p·log_p n, n/p) = %.0f", math.Min(
			math.Sqrt(float64(p))*math.Log(float64(n))/math.Max(math.Log(float64(p)), 1),
			float64(perPE)))
		addRow("unsorted selection", "new (Thm 1)", meas, bound)

		measOld := runMeasured(m, func(pe *comm.PE) {
			sel.KthRandomized(pe, locals[pe.Rank()], n/2, xrand.NewPE(seed+2, pe.Rank()))
		})
		addRow("unsorted selection", "old [31]", measOld, fmt.Sprintf("Ω(n/p) = %d", perPE))
	}

	// --- Sorted selection (multisequence) ------------------------------
	{
		locals := sortedLocals(seed+3, p, perPE)
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			shared := xrand.New(seed + 4)
			sel.MSSelect[uint64](pe, sel.SliceSeq[uint64](locals[pe.Rank()]), int64(k), shared)
		})
		addRow("sorted selection", "exact (α log kp)", meas, "O(√p·log_p kp) words (samples)")

		measFlex := runMeasured(m, func(pe *comm.PE) {
			sel.AMSSelect[uint64](pe, sel.SliceSeq[uint64](locals[pe.Rank()]), int64(k), 2*int64(k), xrand.NewPE(seed+5, pe.Rank()))
		})
		addRow("sorted selection", "flexible k (α log kp)", measFlex, "O(1) words (pivots only)")
	}

	// --- Bulk priority queue -------------------------------------------
	{
		locals := sortedLocals(seed+6, p, perPE/4)
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			q := bpq.New[uint64](pe, seed+7)
			q.InsertBulk(locals[pe.Rank()])
			q.DeleteMin(int64(k))
		})
		addRow("bulk PQ insert*+deleteMin*", "new (Thm 5)", meas, "O(√p·log_p kp) (no element moves)")

		measOld := runMeasured(m, func(pe *comm.PE) {
			// Old approach [31]: inserted elements go to random PEs.
			rng := xrand.NewPE(seed+8, pe.Rank())
			shuffled := randomReassign(pe, locals[pe.Rank()], rng)
			q := bpq.New[uint64](pe, seed+9)
			q.InsertBulk(shuffled)
			q.DeleteMin(int64(k))
		})
		addRow("bulk PQ insert*+deleteMin*", "old [31] (random alloc)", measOld,
			fmt.Sprintf("Θ(n/p) = %d", perPE/4))
	}

	// --- Top-k most frequent objects ------------------------------------
	{
		z := gen.NewZipf(1<<16, 1)
		locals := make([][]uint64, p)
		for r := 0; r < p; r++ {
			locals[r] = gen.FrequencyInput(xrand.NewPE(seed+10, r), z, perPE)
		}
		params := freq.Params{K: k, Eps: 0.02, Delta: 1e-4}
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			freq.PAC(pe, locals[pe.Rank()], params, xrand.NewPE(seed+11, pe.Rank()))
		})
		addRow("top-k frequent", "PAC (Thm 7)", meas,
			fmt.Sprintf("(log p)/(p·ε²)·log(k/δ) ≈ %.0f", logp/(float64(p)*params.Eps*params.Eps)*math.Log(float64(k)/params.Delta)))

		measEC := runMeasured(m, func(pe *comm.PE) {
			freq.EC(pe, locals[pe.Rank()], params, xrand.NewPE(seed+12, pe.Rank()))
		})
		addRow("top-k frequent", "EC (Thm 11)", measEC,
			fmt.Sprintf("(1/ε)·√(log p/p)·log(n/δ) ≈ %.0f", 1/params.Eps*math.Sqrt(logp/float64(p))*math.Log(float64(n)/params.Delta)))

		measNaive := runMeasured(m, func(pe *comm.PE) {
			freq.Naive(pe, locals[pe.Rank()], params, xrand.NewPE(seed+13, pe.Rank()))
		})
		addRow("top-k frequent", "old (coordinator)", measNaive, "Ω(k/ε) at the master")
	}

	// --- Top-k sum aggregation ------------------------------------------
	{
		z := gen.NewZipf(1<<14, 1)
		keys := make([][]uint64, p)
		vals := make([][]float64, p)
		for r := 0; r < p; r++ {
			keys[r], vals[r] = gen.WeightedInput(xrand.NewPE(seed+14, r), z, perPE)
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			agg.PAC(pe, keys[pe.Rank()], vals[pe.Rank()], agg.Params{K: k, Eps: 0.02, Delta: 1e-4}, xrand.NewPE(seed+15, pe.Rank()))
		})
		addRow("top-k sum aggregation", "new (Thm 15)", meas,
			fmt.Sprintf("(log p/ε)·√(1/p)·log(n/δ) ≈ %.0f", logp/0.02*math.Sqrt(1/float64(p))*math.Log(float64(n)/1e-4)))
	}

	// --- Multicriteria top-k --------------------------------------------
	{
		const mCrit = 4
		datas := make([]*mtopk.Data, p)
		for r := 0; r < p; r++ {
			datas[r] = mtopk.NewData(mtopk.GenObjects(xrand.NewPE(seed+16, r), perPE/8, mCrit, uint64(r)<<40), mCrit)
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			mtopk.DTA(pe, datas[pe.Rank()], mtopk.SumScore, k, xrand.NewPE(seed+17, pe.Rank()))
		})
		addRow("multicriteria top-k", "DTA (Thm 6)", meas, "m·logK words")
	}

	return t
}

func sortedLocals(seed int64, p, perPE int) [][]uint64 {
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		rng := xrand.NewPE(seed, r)
		l := make([]uint64, perPE)
		for i := range l {
			// Globally unique: random high word, (rank, index) stamp low —
			// the paper's (v, x) tie-breaking composition.
			l[i] = rng.Uint64()<<32 | uint64(r)<<24 | uint64(i)&0xffffff
		}
		slices.Sort(l)
		locals[r] = l
	}
	return locals
}

// randomReassign sends every element to a uniformly random PE — the
// "random allocation" precondition of the pre-paper data structures.
func randomReassign(pe *comm.PE, local []uint64, rng *xrand.RNG) []uint64 {
	p := pe.P()
	parts := make([][]uint64, p)
	for _, x := range local {
		d := rng.Intn(p)
		parts[d] = append(parts[d], x)
	}
	recv := coll.AllToAll(pe, parts)
	var out []uint64
	for _, part := range recv {
		out = append(out, part...)
	}
	return out
}
