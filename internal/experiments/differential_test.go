package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/sel"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// Differential coverage: a production machine (w scheduler goroutines,
// sends dropped straight into mailboxes) must be bit-exact with the
// reference machine of internal/simexec (one goroutine, every message
// carried and delivered in a seeded order). Every operation of the
// collective suite plus unsorted selection runs on both with equal seeds;
// the per-PE results AND the metered statistics (words/PE, startups/PE,
// the modeled clock) must match exactly — the metering happens above the
// transport, and both executors preserve per-sender FIFO order, so any
// divergence is a runtime bug.

// diffOp is one differentially tested operation: run returns this PE's
// result as a comparable value.
type diffOp struct {
	name string
	run  func(pe *comm.PE, seed int64) any
}

func diffOps(perPE int) []diffOp {
	return []diffOp{
		{"Broadcast", func(pe *comm.PE, seed int64) any {
			var data []int64
			if pe.Rank() == 0 {
				data = []int64{seed, seed * 3, 42}
			}
			got := coll.Broadcast(pe, 0, data)
			out := make([]int64, len(got))
			copy(out, got)
			return out
		}},
		{"AllReduceVec", func(pe *comm.PE, seed int64) any {
			x := []int64{int64(pe.Rank()) + seed, 1, int64(pe.Rank() * pe.Rank())}
			return coll.AllReduce(pe, x, func(a, b int64) int64 { return a + b })
		}},
		{"AllReduceLong", func(pe *comm.PE, seed int64) any {
			x := make([]int64, 4*pe.P()+3)
			for i := range x {
				x[i] = seed + int64(pe.Rank()*len(x)+i)
			}
			return coll.AllReduce(pe, x, func(a, b int64) int64 { return a + b })
		}},
		{"ExScanSum", func(pe *comm.PE, seed int64) any {
			return coll.ExScanSum(pe, int64(pe.Rank())+seed)
		}},
		{"AllGatherConcat", func(pe *comm.PE, seed int64) any {
			return coll.AllGatherConcat(pe, []int64{int64(pe.Rank()) + seed, seed})
		}},
		{"AllGathervRagged", func(pe *comm.PE, seed int64) any {
			data := make([]int64, pe.Rank()%4)
			for i := range data {
				data[i] = seed + int64(pe.Rank()+i)
			}
			views := coll.AllGatherv(pe, data)
			var flat []int64
			for _, v := range views {
				flat = append(flat, v...)
			}
			return flat
		}},
		{"AllToAll", func(pe *comm.PE, seed int64) any {
			parts := make([][]int64, pe.P())
			for d := range parts {
				parts[d] = []int64{seed + int64(pe.Rank()*1000+d)}
			}
			got := coll.AllToAll(pe, parts)
			var flat []int64
			for _, part := range got {
				flat = append(flat, part...)
			}
			return flat
		}},
		{"HypercubeA2A", func(pe *comm.PE, seed int64) any {
			items := make([]routed, pe.P())
			for d := range items {
				items[d] = routed{Dest: d, Payload: seed + int64(pe.Rank())}
			}
			var sum int64
			coll.RouteCombine(pe, items, routedDest, nil, func(got []routed) {
				for _, it := range got {
					sum += it.Payload
				}
			})
			return sum
		}},
		{"IRecvPipeline", func(pe *comm.PE, seed int64) any {
			// Two receives posted against one source must complete in
			// posting order with the same meter as blocking Recvs — the
			// handle API's FIFO contract, pinned across backends.
			tag := pe.NextCollTag()
			p := pe.P()
			next, prev := (pe.Rank()+1)%p, (pe.Rank()-1+p)%p
			h1 := pe.IRecv(prev, tag)
			h2 := pe.IRecv(prev, tag)
			pe.Send(next, tag, seed+int64(pe.Rank()), 1)
			pe.Send(next, tag, int64(pe.Rank()*7), 2)
			a, _ := h1.Wait()
			b, _ := h2.Wait()
			return []int64{a.(int64), b.(int64)}
		}},
		{"SelKth", func(pe *comm.PE, seed int64) any {
			local := gen.SelectionInput(xrand.NewPE(seed, pe.Rank()), perPE, 12)
			n := int64(pe.P() * perPE)
			return sel.Kth(pe, local, n/2, xrand.NewPE(seed+7, pe.Rank()))
		}},
		{"SelSmallestK", func(pe *comm.PE, seed int64) any {
			local := gen.SelectionInput(xrand.NewPE(seed+1, pe.Rank()), perPE, 12)
			out := sel.SmallestK(pe, local, int64(pe.P()*4), xrand.NewPE(seed+9, pe.Rank()))
			// Order within a PE is unspecified but deterministic per run;
			// normalize by summing (the multiset is what is pinned).
			var sum uint64
			for _, v := range out {
				sum += v
			}
			return []any{len(out), sum}
		}},
	}
}

// runDiffSuite executes all ops on m and closes it, capturing per-PE
// results and per-op stats (ResetStats between ops isolates each op's
// metering).
func runDiffSuite(t *testing.T, m *comm.Machine, seed int64, perPE int) (results [][]any, stats []comm.Stats) {
	t.Helper()
	defer m.Close()
	ops := diffOps(perPE)
	results = make([][]any, len(ops))
	for i := range results {
		results[i] = make([]any, m.P())
	}
	for i, op := range ops {
		m.ResetStats()
		i := i
		op := op
		if err := m.Run(func(pe *comm.PE) {
			results[i][pe.Rank()] = op.run(pe, seed)
		}); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		stats = append(stats, m.Stats())
	}
	return results, stats
}

func TestBackendDifferential(t *testing.T) {
	const perPE = 1 << 10
	for _, p := range []int{4, 16, 64} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			seed := int64(1000 + p)
			refRes, refStats := runDiffSuite(t, simexec.Reference(p), seed, perPE)
			boxRes, boxStats := runDiffSuite(t, comm.NewMachine(comm.DefaultConfig(p)), seed, perPE)
			ops := diffOps(perPE)
			for i, op := range ops {
				if !reflect.DeepEqual(refRes[i], boxRes[i]) {
					t.Errorf("%s: results diverge from the reference", op.name)
				}
				if refStats[i] != boxStats[i] {
					t.Errorf("%s: stats diverge:\n  reference:  %+v\n  production: %+v",
						op.name, refStats[i], boxStats[i])
				}
			}
		})
	}
}

// TestBackendDifferentialShardedScheduler pins the sharded scheduler
// against the reference executor in the multiplexed regime — far
// fewer shards than PEs (w = 4, p = 64, so every shard is 16 ranks deep)
// plus the degenerate single-shard machine. Results and metered statistics must be
// bit-identical: scheduling order may differ wildly, but the per-PE RNG
// streams, per-sender FIFO delivery, and above-transport metering make
// every observable deterministic.
func TestBackendDifferentialShardedScheduler(t *testing.T) {
	const p, perPE = 64, 1 << 10
	const seed = int64(7700)
	refRes, refStats := runDiffSuite(t, simexec.Reference(p), seed, perPE)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			cfg := comm.DefaultConfig(p)
			cfg.Workers = w
			boxRes, boxStats := runDiffSuite(t, comm.NewMachine(cfg), seed, perPE)
			for i, op := range diffOps(perPE) {
				if !reflect.DeepEqual(refRes[i], boxRes[i]) {
					t.Errorf("%s: results diverge at w=%d", op.name, w)
				}
				if refStats[i] != boxStats[i] {
					t.Errorf("%s: stats diverge at w=%d:\n  reference:  %+v\n  production: %+v",
						op.name, w, refStats[i], boxStats[i])
				}
			}
		})
	}
}

// TestBackendDifferentialRepeatedRuns pins cross-run state handling: tag
// sequences, pooled stepper state and the persistent worker pool must
// leave the machines equivalent after many reuse cycles.
func TestBackendDifferentialRepeatedRuns(t *testing.T) {
	const p, rounds = 8, 5
	mc := simexec.Reference(p)
	defer mc.Close()
	mb := comm.NewMachine(comm.DefaultConfig(p))
	defer mb.Close()
	for r := 0; r < rounds; r++ {
		var resC, resB [p]int64
		mc.MustRun(func(pe *comm.PE) {
			resC[pe.Rank()] = coll.SumAll(pe, int64(pe.Rank()+r)) + coll.ExScanSum(pe, int64(r))
		})
		mb.MustRun(func(pe *comm.PE) {
			resB[pe.Rank()] = coll.SumAll(pe, int64(pe.Rank()+r)) + coll.ExScanSum(pe, int64(r))
		})
		if resC != resB {
			t.Fatalf("round %d: results diverge: %v vs %v", r, resC, resB)
		}
		if sc, sb := mc.Stats(), mb.Stats(); sc != sb {
			t.Fatalf("round %d: cumulative stats diverge:\n  %+v\n  %+v", r, sc, sb)
		}
	}
}

// a2aParts is rank r's all-to-all contribution: one word r·p + d for
// each destination d.
func a2aParts(pe *comm.PE) [][]int64 {
	parts := make([][]int64, pe.P())
	for d := range parts {
		parts[d] = []int64{int64(pe.Rank()*pe.P() + d)}
	}
	return parts
}

// TestBackendDifferentialContinuationBodies pins RunAsync against the
// blocking reference: the continuation-scheduled collective suite on a
// production machine (including w < p scheduler widths, where suspensions
// cross worker boundaries) must be bit-identical — per-PE results and
// metered statistics — to the same collectives as blocking bodies on the
// reference executor. The suite is one selection level's steppers after a
// nested blocking body (comm.BodyStep) that runs the collectives without
// a stepper form.
func TestBackendDifferentialContinuationBodies(t *testing.T) {
	const p = 64
	sum := func(a, b int64) int64 { return a + b }
	straight := func(pe *comm.PE) int64 {
		coll.Broadcast(pe, 0, []int64{9, 8, 7})
		b := coll.ExScanSum(pe, int64(pe.Rank()))
		coll.Barrier(pe)
		var g int64
		for _, part := range coll.AllToAll(pe, a2aParts(pe)) {
			g += part[0]
		}
		return b ^ g
	}
	hdr := []int64{2, 1}
	up := func(pe *comm.PE, c *int64) comm.Stepper {
		return coll.ReduceConcatStep(pe, 0, hdr, []int64{int64(pe.Rank())}, func(sums, all []int64) {
			if sums != nil {
				*c = sums[0] + int64(len(all))
			}
		})
	}
	blockBody := func(pe *comm.PE) int64 {
		bg := straight(pe)
		a := coll.AllReduceScalar(pe, int64(pe.Rank())+3, sum)
		var c int64
		comm.RunSteps(pe, up(pe, &c))
		d := coll.BroadcastScalar(pe, 0, int64(pe.Rank())+5)
		return a ^ bg ^ c ^ d
	}
	start := func(pe *comm.PE, out *int64) comm.Stepper {
		var a, bg, c, d int64
		return comm.SeqP(pe,
			comm.BodyStep(pe, func(pe *comm.PE) { bg = straight(pe) }),
			coll.AllReduceScalarStep(pe, int64(pe.Rank())+3, sum, func(v int64) { a = v }),
			up(pe, &c),
			coll.BroadcastScalarStep(pe, 0, int64(pe.Rank())+5, func(v int64) { d = v }),
			comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle { *out = a ^ bg ^ c ^ d; return nil }),
		)
	}
	mc := simexec.Reference(p)
	defer mc.Close()
	var refRes [p]int64
	mc.MustRun(func(pe *comm.PE) { refRes[pe.Rank()] = blockBody(pe) })
	refStats := mc.Stats()
	for _, w := range []int{0, 1, 4} {
		cfg := comm.DefaultConfig(p)
		cfg.Workers = w
		m := comm.NewMachine(cfg)
		var res [p]int64
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper { return start(pe, &res[pe.Rank()]) })
		if res != refRes {
			t.Errorf("w=%d: continuation results diverge from the blocking reference", w)
		}
		if s := m.Stats(); s != refStats {
			t.Errorf("w=%d: stats diverge:\n  reference blocking: %+v\n  production async:   %+v", w, refStats, s)
		}
		m.Close()
	}
}
