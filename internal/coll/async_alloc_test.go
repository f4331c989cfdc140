package coll

import (
	"testing"

	"commtopk/internal/comm"
)

// Steady-state allocation guards for the continuation forms: every
// stepper, rebuilt fresh each op from the per-PE state pool and driven
// under Machine.RunAsync, must dispatch allocation-free — per-op stepper
// state that is not pooled costs about 1.2 KB per PE per op, 151 MB of
// garbage per collectives op at p = 131072.
//
// Inputs come from per-rank buffers allocated before measuring and from
// package-level funcs, so the guards measure the steppers, not the
// harness.

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

func TestZeroAllocSteppersRunAsync(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p = 8
	payload, dst, long, longDst := perRank[int64](p, 3), perRank[int64](p, 3), perRank[int64](p, 4*p+3), perRank[int64](p, 4*p+3)
	guardPayload := func(pe *comm.PE) []int64 {
		b := payload[pe.Rank()]
		b[0], b[1], b[2] = int64(pe.Rank()), 7, int64(pe.Rank()*3)
		return b
	}
	cases := []struct {
		name  string
		start func(pe *comm.PE) comm.Stepper
	}{
		{"AllReduceScalar", func(pe *comm.PE) comm.Stepper {
			return AllReduceScalarStep(pe, int64(pe.Rank()), sumI64, nil)
		}},
		{"AllReduceIntoVec", func(pe *comm.PE) comm.Stepper {
			return AllReduceIntoStep(pe, dst[pe.Rank()], guardPayload(pe), sumI64, nil)
		}},
		{"AllReduceIntoLong", func(pe *comm.PE) comm.Stepper {
			// ≥ 4p words selects the Rabenseifner path.
			return AllReduceIntoStep(pe, longDst[pe.Rank()], long[pe.Rank()], sumI64, nil)
		}},
		{"ReduceConcat", func(pe *comm.PE) comm.Stepper {
			return ReduceConcatStep(pe, 0, guardPayload(pe)[:2], guardPayload(pe), nil)
		}},
		{"BroadcastScalar", func(pe *comm.PE) comm.Stepper {
			return BroadcastScalarStep(pe, 0, int64(pe.Rank()), nil)
		}},
		{"SeqPChain", func(pe *comm.PE) comm.Stepper {
			// One selection level's collectives as the scaling suite runs
			// them: a pooled sequence of pooled steppers.
			return comm.SeqP(pe,
				AllReduceScalarStep(pe, int64(pe.Rank()), sumI64, nil),
				ReduceConcatStep(pe, 0, guardPayload(pe)[:2], guardPayload(pe)[:0], nil),
				BroadcastScalarStep(pe, 0, int64(pe.Rank()), nil),
			)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perOp := measureAsyncAllocs(p, tc.start)
			// Slack absorbs rare sync.Pool refills after GC; anything near
			// one allocation per PE means the stepper state is not pooled.
			if perOp > float64(p)*0.25 {
				t.Errorf("%s allocates %.2f per op across %d PEs; stepper state pooling regressed",
					tc.name, perOp, p)
			}
		})
	}
}

func sumI64(a, b int64) int64 { return a + b }

func guardDest(v int64) int { return int(v) }

// TestZeroAllocSelKthStepRunAsync lives in internal/sel (the stepper is
// sel.KthStep); this file keeps only the collectives guards.
