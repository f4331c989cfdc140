package coll

import (
	"testing"

	"commtopk/internal/comm"
)

// These tests pin the buffer-ownership contracts of the collectives:
// reduction results must never alias caller inputs (so callers may reuse their buffers immediately), while AllToAll
// deliberately keeps the self-part aliased (zero-copy local delivery).

func TestAllReduceDoesNotAliasInput(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		runOn(t, p, func(pe *comm.PE) {
			x := []int64{int64(pe.Rank()), 7}
			got := AllReduce(pe, x, func(a, b int64) int64 { return a + b })
			got[0], got[1] = -1, -1
			if x[0] != int64(pe.Rank()) || x[1] != 7 {
				t.Errorf("p=%d rank=%d: AllReduce result aliases caller input", p, pe.Rank())
			}
			// The input may be reused (even mutated) immediately after the
			// collective returns: nothing in flight references it.
			x[0] = 99
		})
	}
}

func TestAllReduceIntoReusesDst(t *testing.T) {
	runOn(t, 4, func(pe *comm.PE) {
		dst := make([]int64, 2, 8)
		var first, second []int64
		comm.RunSteps(pe, AllReduceIntoStep(pe, dst, []int64{1, 2}, sumI64, func(v []int64) { first = v }))
		if first[0] != 4 || first[1] != 8 {
			t.Fatalf("got %v", first)
		}
		comm.RunSteps(pe, AllReduceIntoStep(pe, first, []int64{10, 20}, sumI64, func(v []int64) { second = v }))
		if &second[0] != &first[0] {
			t.Error("AllReduceIntoStep reallocated although dst capacity sufficed")
		}
		if second[0] != 40 || second[1] != 80 {
			t.Fatalf("got %v", second)
		}
	})
}

func TestAllToAllKeepsSelfPartAliased(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		runOn(t, p, func(pe *comm.PE) {
			parts := make([][]int, p)
			for i := range parts {
				parts[i] = []int{pe.Rank(), i}
			}
			out := AllToAll(pe, parts)
			if len(parts[pe.Rank()]) > 0 && &out[pe.Rank()][0] != &parts[pe.Rank()][0] {
				t.Errorf("p=%d rank=%d: self-part was copied; must stay aliased", p, pe.Rank())
			}
		})
	}
}

// measureCollectiveAllocs returns the average allocations per collective
// invocation, with the constant per-Run overhead (goroutine spawns, wait
// group) measured separately and subtracted.
func measureCollectiveAllocs(p, opsPerRun int, body func(pe *comm.PE)) float64 {
	m := comm.NewMachine(comm.DefaultConfig(p))
	empty := testing.AllocsPerRun(10, func() {
		m.MustRun(func(pe *comm.PE) {})
	})
	// Warm up pools before measuring.
	m.MustRun(func(pe *comm.PE) {
		for i := 0; i < 3; i++ {
			body(pe)
		}
	})
	loaded := testing.AllocsPerRun(10, func() {
		m.MustRun(func(pe *comm.PE) {
			for i := 0; i < opsPerRun; i++ {
				body(pe)
			}
		})
	})
	return (loaded - empty) / float64(opsPerRun)
}

// TestZeroAllocCollectives guards the zero-allocation hot paths: the
// scalar collectives, the all-reduce into a reused dst and the router must
// not allocate per call in steady state on any PE. The budget is a small
// fraction of an allocation per op to absorb rare sync.Pool refills after
// GC.
func TestZeroAllocCollectives(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p, ops = 8, 64
	dst := perRank[int64](p, 4)
	routed := perRank[int64](p, p)
	cases := []struct {
		name string
		body func(pe *comm.PE)
	}{
		{"AllReduceScalar", func(pe *comm.PE) {
			AllReduceScalar(pe, int64(pe.Rank()), func(a, b int64) int64 { return a + b })
		}},
		{"SumAll", func(pe *comm.PE) { SumAll(pe, int64(1)) }},
		{"ExScanSum", func(pe *comm.PE) { ExScanSum(pe, int64(pe.Rank())) }},
		{"Barrier", func(pe *comm.PE) { Barrier(pe) }},
		{"BroadcastScalar", func(pe *comm.PE) { BroadcastScalar(pe, 0, int64(42)) }},
		{"AllReduceInto", func(pe *comm.PE) {
			var x [4]int64
			x[0] = int64(pe.Rank())
			comm.RunSteps(pe, AllReduceIntoStep(pe, dst[pe.Rank()], x[:], sumI64, nil))
		}},
		{"RouteCombine", func(pe *comm.PE) {
			// The payload is the destination (guardDest), so nothing but
			// the router can allocate.
			items := routed[pe.Rank()]
			for d := range items {
				items[d] = int64(d)
			}
			RouteCombine(pe, items, guardDest, nil, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perOp := measureCollectiveAllocs(p, ops, tc.body)
			// Per PE per op; allow slack for pool refills under GC.
			if perOp > float64(p)*0.25 {
				t.Errorf("%s allocates %.2f per op across %d PEs (%.2f per PE); hot path regressed",
					tc.name, perOp, p, perOp/float64(p))
			}
		})
	}
}

// TestZeroAllocUnsortedSelectionSteadyState guards the end-to-end hot path
// of Algorithm 1: after warmup, repeated Kth calls must not grow the heap
// per call beyond the Run overhead (the work buffer, sample buffers and
// reduction accumulators are all reused).
func TestZeroAllocSelectionHarness(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	// Lives here rather than in sel to keep the AllocsPerRun helpers in one
	// place; sel's own tests cover correctness.
	const p, ops = 4, 8
	dst := perRank[int64](p, 2)
	perOp := measureCollectiveAllocs(p, ops, func(pe *comm.PE) {
		var x [2]int64
		x[0], x[1] = int64(pe.Rank()), 1
		comm.RunSteps(pe, AllReduceIntoStep(pe, dst[pe.Rank()], x[:], sumI64, nil))
		ExScanSum(pe, int64(pe.Rank()))
	})
	if perOp > float64(p)*0.5 {
		t.Errorf("selection-shaped collective pair allocates %.2f per op; want ~0", perOp)
	}
}
