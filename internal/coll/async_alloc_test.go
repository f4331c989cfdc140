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
// Inputs come from per-PE scratch and package-level funcs so the guards
// measure the steppers, not the harness. The only tolerated allocations
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
	// Warm up pools, scratch stores and the per-PE stepper freelists.
	for i := 0; i < 3; i++ {
		m.MustRunAsync(start)
	}
	loaded := testing.AllocsPerRun(10, func() {
		m.MustRunAsync(start)
	})
	return loaded - empty
}

func guardPayload(pe *comm.PE) []int64 {
	b := comm.ScratchSlice[int64](pe, "guard.payload", 3)
	b[0], b[1], b[2] = int64(pe.Rank()), 7, int64(pe.Rank()*3)
	return b
}

func discardVisit(src int, b []int64) {}

func TestZeroAllocSteppersRunAsync(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p = 8
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
		{"InScan", 0, func(pe *comm.PE) comm.Stepper {
			dst := comm.ScratchSlice[int64](pe, "guard.scan.dst", 3)
			return InScanStep(pe, dst, guardPayload(pe), sumI64, nil)
		}},
		{"ExScan", 0, func(pe *comm.PE) comm.Stepper {
			dst := comm.ScratchSlice[int64](pe, "guard.scan.dst", 3)
			id := comm.ScratchSlice[int64](pe, "guard.scan.id", 3)
			clear(id)
			return ExScanStep(pe, dst, guardPayload(pe), sumI64, id, nil)
		}},
		{"GatherStrided", 0, func(pe *comm.PE) comm.Stepper {
			return GatherStridedStep(pe, guardPayload(pe), 3, discardVisit)
		}},
		{"AllReduceIntoVec", 0, func(pe *comm.PE) comm.Stepper {
			dst := comm.ScratchSlice[int64](pe, "guard.dst", 3)
			return AllReduceIntoStep(pe, dst, guardPayload(pe), sumI64, nil)
		}},
		{"AllReduceIntoLong", 0, func(pe *comm.PE) comm.Stepper {
			// ≥ 4p words selects the Rabenseifner path.
			x := comm.ScratchSlice[int64](pe, "guard.long", 4*pe.P()+3)
			dst := comm.ScratchSlice[int64](pe, "guard.longdst", len(x))
			return AllReduceIntoStep(pe, dst, x, sumI64, nil)
		}},
		{"AllGatherv", 0, func(pe *comm.PE) comm.Stepper {
			return AllGathervStep(pe, guardPayload(pe), nil)
		}},
		{"AllGatherConcat", 0, func(pe *comm.PE) comm.Stepper {
			return AllGatherConcatStep(pe, guardPayload(pe), nil)
		}},
		{"AllToAll", 0, func(pe *comm.PE) comm.Stepper {
			parts := comm.ScratchSlice[[]int64](pe, "guard.parts", pe.P())
			flat := comm.ScratchSlice[int64](pe, "guard.flat", pe.P())
			for d := range parts {
				flat[d] = int64(pe.Rank()*100 + d)
				parts[d] = flat[d : d+1]
			}
			return AllToAllStep(pe, parts, discardVisit)
		}},
		{"Gatherv", 0, func(pe *comm.PE) comm.Stepper {
			return GathervStep(pe, 0, guardPayload(pe), nil)
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
		{"RouteCombineChunked", 0, func(pe *comm.PE) comm.Stepper {
			return RouteCombineChunkedStep(pe, guardRouted(pe), 2, guardDest, nil, nil)
		}},
		{"AllGatherChunked", 0, func(pe *comm.PE) comm.Stepper {
			return AllGatherChunkedStep(pe, guardPayload(pe), 3, discardVisit)
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

// guardRouted builds a small routed workload in scratch: payload IS the
// destination (guardDest), so nothing allocates per op.
func guardRouted(pe *comm.PE) []int64 {
	items := comm.ScratchSlice[int64](pe, "guard.routed", pe.P())
	for d := range items {
		items[d] = int64(d)
	}
	return items
}

// TestZeroAllocSelKthStepRunAsync lives in internal/sel (the stepper is
// sel.KthStep); this file keeps only the collectives guards.
