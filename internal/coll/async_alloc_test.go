package coll

import (
	"testing"

	"commtopk/internal/comm"
)

// Steady-state allocation guards for the continuation forms: every
// ported stepper, rebuilt fresh each op from the per-PE state pool and
// driven under Machine.RunAsync, must dispatch allocation-free — the
// PR 5 tentpole property that removes the ~1.2 KB/PE/op continuation
// constant (151 MB of garbage per collectives op at p = 131072) the
// PR 4 measurements charged to per-op stepper state.
//
// Inputs come from per-rank buffers allocated before measuring and from
// package-level funcs, so the guards measure the steppers, not the
// harness. The only tolerated allocations
// are protocol-inherent boxings the blocking forms share (Broadcast's
// root boxes its slice payload once per op).

// measureAsyncAllocs returns the average allocations per RunAsync op
// across the whole machine, with the empty-run dispatch overhead
// measured separately and subtracted.
func measureAsyncAllocs(p int, start func(pe *comm.PE) comm.Stepper) float64 {
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	empty := testing.AllocsPerRun(10, func() {
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper { return nil })
	})
	// Warm up pools and the per-PE stepper freelists.
	for i := 0; i < 3; i++ {
		m.MustRunAsync(start)
	}
	loaded := testing.AllocsPerRun(10, func() {
		m.MustRunAsync(start)
	})
	return loaded - empty
}

// perRank returns one n-element buffer per rank of a p-PE machine.
func perRank[T any](p, n int) [][]T {
	b := make([][]T, p)
	for i := range b {
		b[i] = make([]T, n)
	}
	return b
}

func discardVisit(src int, b []int64) {}

func TestZeroAllocSteppersRunAsync(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p = 8
	payload, dst, long, longDst := perRank[int64](p, 3), perRank[int64](p, 3), perRank[int64](p, 4*p+3), perRank[int64](p, 4*p+3)
	flat, routed := perRank[int64](p, p), perRank[int64](p, p)
	parts := perRank[[]int64](p, p)
	guardPayload := func(pe *comm.PE) []int64 {
		b := payload[pe.Rank()]
		b[0], b[1], b[2] = int64(pe.Rank()), 7, int64(pe.Rank()*3)
		return b
	}
	// guardRouted is a small routed workload: payload IS the destination
	// (guardDest), so nothing allocates per op.
	guardRouted := func(pe *comm.PE) []int64 {
		items := routed[pe.Rank()]
		for d := range items {
			items[d] = int64(d)
		}
		return items
	}
	cases := []struct {
		name   string
		budget float64 // machine-wide allocs per op tolerated beyond slack
		start  func(pe *comm.PE) comm.Stepper
	}{
		{"Broadcast", 1, func(pe *comm.PE) comm.Stepper {
			// The root boxes its payload slice once per op (shared-view
			// semantics, identical in the blocking form).
			return BroadcastStep(pe, 0, guardPayload(pe), nil)
		}},
		{"AllReduceScalar", 0, func(pe *comm.PE) comm.Stepper {
			return AllReduceScalarStep(pe, int64(pe.Rank()), sumI64, nil)
		}},
		{"Barrier", 0, func(pe *comm.PE) comm.Stepper {
			return BarrierStep(pe)
		}},
		{"ExScanSum", 0, func(pe *comm.PE) comm.Stepper {
			return ExScanSumStep(pe, int64(pe.Rank()), nil)
		}},
		{"AllReduceIntoVec", 0, func(pe *comm.PE) comm.Stepper {
			return AllReduceIntoStep(pe, dst[pe.Rank()], guardPayload(pe), sumI64, nil)
		}},
		{"AllReduceIntoLong", 0, func(pe *comm.PE) comm.Stepper {
			// ≥ 4p words selects the Rabenseifner path.
			return AllReduceIntoStep(pe, longDst[pe.Rank()], long[pe.Rank()], sumI64, nil)
		}},
		{"AllGatherConcat", 0, func(pe *comm.PE) comm.Stepper {
			return AllGatherConcatStep(pe, guardPayload(pe), nil)
		}},
		{"AllToAll", 0, func(pe *comm.PE) comm.Stepper {
			parts, flat := parts[pe.Rank()], flat[pe.Rank()]
			for d := range parts {
				flat[d] = int64(pe.Rank()*100 + d)
				parts[d] = flat[d : d+1]
			}
			return AllToAllStep(pe, parts, discardVisit)
		}},
		{"ReduceConcat", 0, func(pe *comm.PE) comm.Stepper {
			return ReduceConcatStep(pe, 0, guardPayload(pe)[:2], guardPayload(pe), nil)
		}},
		{"BroadcastScalar", 0, func(pe *comm.PE) comm.Stepper {
			return BroadcastScalarStep(pe, 0, int64(pe.Rank()), nil)
		}},
		{"RouteCombine", 0, func(pe *comm.PE) comm.Stepper {
			return RouteCombineStep(pe, guardRouted(pe), guardDest, nil, nil)
		}},
		{"SeqPChain", 1, func(pe *comm.PE) comm.Stepper {
			// The scaling suite's collectives op shape: pooled sequence of
			// pooled steppers (the broadcast root boxing is the 1).
			return comm.SeqP(pe,
				BroadcastStep(pe, 0, guardPayload(pe), nil),
				AllReduceScalarStep(pe, int64(pe.Rank()), sumI64, nil),
				ExScanSumStep(pe, int64(pe.Rank()), nil),
				BarrierStep(pe),
			)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perOp := measureAsyncAllocs(p, tc.start)
			// Slack absorbs rare sync.Pool refills after GC; anything near
			// one allocation per PE means the stepper state is not pooled.
			if perOp > tc.budget+float64(p)*0.25 {
				t.Errorf("%s allocates %.2f per op across %d PEs (budget %.0f + slack); stepper state pooling regressed",
					tc.name, perOp, p, tc.budget)
			}
		})
	}
}

func sumI64(a, b int64) int64 { return a + b }

func guardDest(v int64) int { return int(v) }

// TestZeroAllocSelKthStepRunAsync lives in internal/sel (the stepper is
// sel.KthStep); this file keeps only the collectives guards.
