// Integration tests: end-to-end pipelines combining several of the
// paper's algorithms on one simulated cluster, the way a downstream
// application would.
package commtopk_test

import (
	"slices"
	"testing"

	"commtopk/internal/agg"
	"commtopk/internal/bnb"
	"commtopk/internal/bpq"
	"commtopk/internal/comm"
	"commtopk/internal/core"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/mtopk"
	"commtopk/internal/redist"
	"commtopk/internal/sel"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

// TestPipelineSelectThenRebalance selects the top-k of a skewed input and
// rebalances the (necessarily skewed) output — the Section 9 story.
func TestPipelineSelectThenRebalance(t *testing.T) {
	const p = 8
	const perPE = 10000
	const k = 4000
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		rng := xrand.NewPE(1, r)
		locals[r] = make([]uint64, perPE)
		base := uint64(0)
		if r == 3 {
			base = 1 << 40 // all heavy values on one PE
		}
		for i := range locals[r] {
			locals[r][i] = base + uint64(rng.Uint64()%(1<<30))
		}
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	balancedLens := make([]int, p)
	var totalSelected int
	m.MustRun(func(pe *comm.PE) {
		rng := xrand.NewPE(2, pe.Rank())
		inv := make([]uint64, perPE)
		for i, v := range locals[pe.Rank()] {
			inv[i] = ^v
		}
		share := sel.SmallestK(pe, inv, k, rng) // top-k largest via complement
		balanced := redist.Balance(pe, share)
		balancedLens[pe.Rank()] = len(balanced)
		if pe.Rank() == 0 {
			totalSelected = k
		}
	})
	nBar := (totalSelected + p - 1) / p
	for r, l := range balancedLens {
		if l > nBar {
			t.Errorf("PE %d holds %d > n̄=%d after rebalance", r, l, nBar)
		}
	}
}

// TestPipelinePQDrivenSelection feeds the output of frequent-object
// detection into a bulk priority queue and drains it in order.
func TestPipelinePQDrivenSelection(t *testing.T) {
	const p = 4
	z := gen.NewZipf(1<<10, 1)
	locals := make([][]uint64, p)
	exact := map[uint64]int64{}
	for r := 0; r < p; r++ {
		locals[r] = gen.FrequencyInput(xrand.NewPE(3, r), z, 20000)
		for _, x := range locals[r] {
			exact[x]++
		}
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	var drained []uint64
	m.MustRun(func(pe *comm.PE) {
		rng := xrand.NewPE(4, pe.Rank())
		res := freq.EC(pe, locals[pe.Rank()], freq.Params{K: 16, Eps: 0.01, Delta: 0.01}, rng)
		// Rank the winners through the PQ by ascending count (composing a
		// unique key from count and object id).
		q := bpq.New[uint64](pe, 5)
		if pe.Rank() == 0 { // owner-computes: one PE holds the result set
			for _, it := range res.Items {
				q.Insert(uint64(it.Count)<<20 | it.Key&0xfffff)
			}
		}
		for {
			batch := q.DeleteMin(4)
			if pe.Rank() == 0 {
				drained = append(drained, batch...)
			}
			// Termination must hinge on a global quantity only (every PE
			// enters the same collectives — SPMD discipline).
			if q.GlobalLen() == 0 {
				break
			}
		}
	})
	if len(drained) != 16 {
		t.Fatalf("drained %d items", len(drained))
	}
	if !slices.IsSorted(drained) {
		t.Error("PQ drain not in ascending count order")
	}
}

// TestPipelineMulticriteriaThenAggregate runs a multicriteria query and
// then sum-aggregates the winners' scores by a grouping key.
func TestPipelineMulticriteriaThenAggregate(t *testing.T) {
	const p = 4
	const perPE = 500
	datas := make([]*mtopk.Data, p)
	var all []mtopk.Object
	for r := 0; r < p; r++ {
		objs := mtopk.GenObjects(xrand.NewPE(6, r), perPE, 3, uint64(r)<<32)
		datas[r] = mtopk.NewData(objs, 3)
		all = append(all, objs...)
	}
	want := mtopk.BruteForceTopK(mtopk.NewData(all, 3), mtopk.SumScore, 20)
	wantIDs := map[uint64]bool{}
	for _, h := range want {
		wantIDs[h.ID] = true
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	var got agg.Result
	m.MustRun(func(pe *comm.PE) {
		rng := xrand.NewPE(7, pe.Rank())
		hits, _ := mtopk.TopK(pe, datas[pe.Rank()], mtopk.SumScore, 20, rng)
		// Group the winners by their home PE (id high bits) and aggregate
		// their scores.
		keys := make([]uint64, len(hits))
		vals := make([]float64, len(hits))
		for i, h := range hits {
			keys[i] = h.ID >> 32
			vals[i] = h.Score
		}
		r := agg.ECSum(pe, keys, vals, agg.Params{K: p, Eps: 0.05, Delta: 0.05}, rng)
		if pe.Rank() == 0 {
			got = r
		}
	})
	if len(got.Items) == 0 {
		t.Fatal("aggregation returned nothing")
	}
	var sum float64
	for _, it := range got.Items {
		sum += it.Sum
	}
	var wantSum float64
	for _, h := range want {
		wantSum += h.Score
	}
	if sum < wantSum*0.99 || sum > wantSum*1.01 {
		t.Errorf("aggregated winner mass %v, want %v", sum, wantSum)
	}
}

// TestPipelineBnBUsesSelectionInternals solves knapsack on the cluster and
// cross-checks the result against DP, then verifies insert locality.
func TestPipelineBnBUsesSelectionInternals(t *testing.T) {
	const p = 4
	inst := bnb.StronglyCorrelatedKnapsack(2, 18, 200, 50)
	want := -float64(inst.OptimalByDP())
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		res := bnb.Solve[bnb.KNode](pe, inst, 3)
		if res.Objective != want {
			t.Errorf("objective %v, want %v", res.Objective, want)
		}
	})
	// Communication must be per-round reductions only, far below the
	// expansion count × node size.
	if w := m.Stats().BottleneckWords(); w > 50000 {
		t.Errorf("B&B moved %d words; queue is supposed to keep nodes local", w)
	}
}

// TestClusterFacadeEndToEnd drives everything through the public façade.
func TestClusterFacadeEndToEnd(t *testing.T) {
	const p = 4
	rng := xrand.New(8)
	data := make([]uint64, 40000)
	for i := range data {
		data[i] = uint64(rng.Intn(2000))
	}
	exact := stats.Count(data)

	c := core.New(p, core.WithSeed(9))
	small, err := c.TopKSmallest(core.Split(data, p), 25)
	if err != nil || len(small) != 25 {
		t.Fatalf("TopKSmallest: %v len=%d", err, len(small))
	}
	res, err := c.TopKFrequent(core.Split(data, p), freq.Params{K: 5, Eps: 0.02, Delta: 0.01}, "pac")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, len(res.Items))
	for i, it := range res.Items {
		keys[i] = it.Key
	}
	if e := stats.EpsTilde(exact, keys, int64(len(data))); e > 0.02 {
		t.Errorf("façade PAC error %v", e)
	}
	balanced, err := c.BalanceLoad(core.Split(data, p))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, b := range balanced {
		total += len(b)
	}
	if total != len(data) {
		t.Errorf("balance lost elements: %d", total)
	}
}

// TestRepeatedQueriesOnOneMachine runs many different collectives-heavy
// queries back-to-back on a single machine — the tag-sequencing and
// reuse regression test.
func TestRepeatedQueriesOnOneMachine(t *testing.T) {
	const p = 6
	z := gen.NewZipf(1<<8, 1)
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.FrequencyInput(xrand.NewPE(10, r), z, 5000)
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	for round := 0; round < 5; round++ {
		seed := int64(round)
		m.MustRun(func(pe *comm.PE) {
			rng := xrand.NewPE(seed, pe.Rank())
			sel.Kth(pe, locals[pe.Rank()], int64(p*5000/2), rng)
			freq.PAC(pe, locals[pe.Rank()], freq.Params{K: 4, Eps: 0.05, Delta: 0.05}, rng)
			redist.Balance(pe, locals[pe.Rank()])
		})
	}
}
