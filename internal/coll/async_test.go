package coll

import (
	"fmt"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
)

// The stepper forms must be bit-identical — results AND metered
// statistics — to their blocking counterparts, on both executors, at
// w < p scheduler widths, and whether driven by RunAsync or by RunSteps
// inside a blocking body.

// asyncPair is one blocking/stepper collective pair under test.
type asyncPair struct {
	name  string
	block func(pe *comm.PE, out *any)
	start func(pe *comm.PE, out *any) comm.Stepper
}

func asyncPairs() []asyncPair {
	sum := func(a, b int64) int64 { return a + b }
	return []asyncPair{
		{
			name: "Broadcast",
			block: func(pe *comm.PE, out *any) {
				var data []int64
				if pe.Rank() == 0 {
					data = []int64{3, 1, 4, 1, 5}
				}
				got := Broadcast(pe, 0, data)
				*out = slices.Clone(got)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				var data []int64
				if pe.Rank() == 0 {
					data = []int64{3, 1, 4, 1, 5}
				}
				return BroadcastStep(pe, 0, data, func(got []int64) { *out = slices.Clone(got) })
			},
		},
		{
			name: "AllReduceScalar",
			block: func(pe *comm.PE, out *any) {
				*out = AllReduceScalar(pe, int64(pe.Rank())+7, sum)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return AllReduceScalarStep(pe, int64(pe.Rank())+7, sum, func(v int64) { *out = v })
			},
		},
		{
			name:  "Barrier",
			block: func(pe *comm.PE, out *any) { Barrier(pe); *out = true },
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return comm.Seq(BarrierStep(pe), comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
					*out = true
					return nil
				}))
			},
		},
		{
			name: "ExScanSum",
			block: func(pe *comm.PE, out *any) {
				*out = ExScanSum(pe, int64(pe.Rank()*2)+1)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return ExScanSumStep(pe, int64(pe.Rank()*2)+1, func(v int64) { *out = v })
			},
		},
		{
			name: "AllReduceVec",
			block: func(pe *comm.PE, out *any) {
				x := []int64{int64(pe.Rank()) + 2, 1, int64(pe.Rank() * pe.Rank())}
				*out = AllReduce(pe, x, sum)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				x := []int64{int64(pe.Rank()) + 2, 1, int64(pe.Rank() * pe.Rank())}
				return AllReduceIntoStep(pe, nil, x, sum, func(v []int64) { *out = slices.Clone(v) })
			},
		},
		{
			name: "AllReduceLong",
			block: func(pe *comm.PE, out *any) {
				x := make([]int64, 4*pe.P()+3)
				for i := range x {
					x[i] = int64(pe.Rank()*len(x) + i)
				}
				*out = AllReduce(pe, x, sum)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				x := make([]int64, 4*pe.P()+3)
				for i := range x {
					x[i] = int64(pe.Rank()*len(x) + i)
				}
				return AllReduceIntoStep(pe, nil, x, sum, func(v []int64) { *out = slices.Clone(v) })
			},
		},
		{
			name: "AllGatherConcat",
			block: func(pe *comm.PE, out *any) {
				*out = AllGatherConcat(pe, []int64{int64(pe.Rank()), 9})
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return AllGatherConcatStep(pe, []int64{int64(pe.Rank()), 9}, func(v []int64) {
					*out = slices.Clone(v) // borrowed: copy before the buffer recycles
				})
			},
		},
		{
			name: "AllToAll",
			block: func(pe *comm.PE, out *any) {
				parts := make([][]int64, pe.P())
				for d := range parts {
					parts[d] = []int64{int64(pe.Rank()*100 + d)}
				}
				var flat []int64
				for src, part := range AllToAll(pe, parts) {
					flat = append(flat, int64(src))
					flat = append(flat, part...)
				}
				*out = flat
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				parts := make([][]int64, pe.P())
				for d := range parts {
					parts[d] = []int64{int64(pe.Rank()*100 + d)}
				}
				// Visit order differs from index order; re-index to compare.
				bys := make([][]int64, pe.P())
				return comm.Seq(
					AllToAllStep(pe, parts, func(src int, part []int64) {
						bys[src] = slices.Clone(part)
					}),
					comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
						var flat []int64
						for src, part := range bys {
							flat = append(flat, int64(src))
							flat = append(flat, part...)
						}
						*out = flat
						return nil
					}),
				)
			},
		},
		{
			name: "BroadcastScalar",
			block: func(pe *comm.PE, out *any) {
				*out = BroadcastScalar(pe, 0, int64(pe.Rank())+41)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return BroadcastScalarStep(pe, 0, int64(pe.Rank())+41, func(v int64) { *out = v })
			},
		},
		{
			name: "RouteCombine",
			block: func(pe *comm.PE, out *any) {
				comm.RunSteps(pe, RouteCombineStep(pe, routeItems(pe), routedDest, sumPerDest, func(got []routed) {
					*out = flattenRouted(got)
				}))
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return RouteCombineStep(pe, routeItems(pe), routedDest, sumPerDest, func(got []routed) {
					*out = flattenRouted(got)
				})
			},
		},
		{
			name: "ChainedSuite",
			block: func(pe *comm.PE, out *any) {
				Broadcast(pe, 0, []int64{1, 2, 3, 4})
				a := AllReduceScalar(pe, int64(pe.Rank()), sum)
				b := ExScanSum(pe, int64(pe.Rank()))
				Barrier(pe)
				*out = a + b
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				var a, b int64
				return comm.SeqP(pe,
					BroadcastStep[int64](pe, 0, []int64{1, 2, 3, 4}, nil),
					AllReduceScalarStep(pe, int64(pe.Rank()), sum, func(v int64) { a = v }),
					ExScanSumStep(pe, int64(pe.Rank()), func(v int64) { b = v }),
					BarrierStep(pe),
					comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle { *out = a + b; return nil }),
				)
			},
		},
	}
}

// routed is a router test item: its destination rank and a payload.
type routed struct {
	Dest    int
	Payload int64
}

func routedDest(it routed) int { return it.Dest }

// routeItems builds the hypercube workload: two items per destination.
func routeItems(pe *comm.PE) []routed {
	items := make([]routed, 0, 2*pe.P())
	for d := 0; d < pe.P(); d++ {
		items = append(items,
			routed{Dest: d, Payload: int64(pe.Rank()*100 + d)},
			routed{Dest: d, Payload: int64(d * d)})
	}
	return items
}

// sumPerDest is an order-canonical combine hook (sums per destination,
// emits in ascending dest order), usable under any schedule.
func sumPerDest(held []routed) []routed {
	sums := map[int]int64{}
	for _, it := range held {
		sums[it.Dest] += it.Payload
	}
	dests := make([]int, 0, len(sums))
	for d := range sums {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	out := make([]routed, 0, len(dests))
	for _, d := range dests {
		out = append(out, routed{Dest: d, Payload: sums[d]})
	}
	return out
}

func flattenRouted(items []routed) []int64 {
	flat := []int64{}
	for _, it := range items {
		flat = append(flat, int64(it.Dest), it.Payload)
	}
	return flat
}

// runPair executes one collective three ways on cfg — blocking body,
// RunAsync steppers, and steppers driven by RunSteps inside a blocking
// body — and requires identical per-PE results and machine stats.
func runPair(t *testing.T, mk func() *comm.Machine, pair asyncPair) {
	t.Helper()
	type outcome struct {
		res   []any
		stats comm.Stats
	}
	measure := func(run func(m *comm.Machine, res []any)) outcome {
		m := mk()
		defer m.Close()
		res := make([]any, m.P())
		run(m, res)
		return outcome{res: res, stats: m.Stats()}
	}
	blocking := measure(func(m *comm.Machine, res []any) {
		m.MustRun(func(pe *comm.PE) { pair.block(pe, &res[pe.Rank()]) })
	})
	async := measure(func(m *comm.Machine, res []any) {
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper { return pair.start(pe, &res[pe.Rank()]) })
	})
	stepped := measure(func(m *comm.Machine, res []any) {
		m.MustRun(func(pe *comm.PE) { comm.RunSteps(pe, pair.start(pe, &res[pe.Rank()])) })
	})
	for i := range blocking.res {
		if !equalAny(blocking.res[i], async.res[i]) {
			t.Errorf("%s rank %d: blocking %v vs async %v", pair.name, i, blocking.res[i], async.res[i])
		}
		if !equalAny(blocking.res[i], stepped.res[i]) {
			t.Errorf("%s rank %d: blocking %v vs RunSteps %v", pair.name, i, blocking.res[i], stepped.res[i])
		}
	}
	if blocking.stats != async.stats {
		t.Errorf("%s: stats diverge blocking vs async:\n  %+v\n  %+v", pair.name, blocking.stats, async.stats)
	}
	if blocking.stats != stepped.stats {
		t.Errorf("%s: stats diverge blocking vs RunSteps:\n  %+v\n  %+v", pair.name, blocking.stats, stepped.stats)
	}
}

func equalAny(a, b any) bool {
	if as, ok := a.([]int64); ok {
		bs, ok := b.([]int64)
		return ok && slices.Equal(as, bs)
	}
	return a == b
}

// bothRigs are a production machine and the reference executor of
// internal/simexec. The second leg's name is older than that package (the
// reference used to be a channel-matrix transport); it stays so that test
// ids remain comparable across history.
var bothRigs = []struct {
	name string
	mk   func(p int) *comm.Machine
}{
	{"mailbox", func(p int) *comm.Machine { return comm.NewMachine(comm.DefaultConfig(p)) }},
	{"chanmatrix", simexec.Reference},
}

func TestStepperCollectivesMatchBlocking(t *testing.T) {
	for _, p := range []int{1, 2, 5, 16, 64} {
		for _, rig := range bothRigs {
			t.Run(fmt.Sprintf("p=%d/%s", p, rig.name), func(t *testing.T) {
				for _, pair := range asyncPairs() {
					runPair(t, func() *comm.Machine { return rig.mk(p) }, pair)
				}
			})
		}
	}
}

// TestStepperCollectivesShardedScheduler pins the continuation path in
// the multiplexed regime: w ≪ p, where every suspension crosses worker
// boundaries and resumes land mid-batch.
func TestStepperCollectivesShardedScheduler(t *testing.T) {
	for _, w := range []int{1, 4} {
		cfg := comm.DefaultConfig(64)
		cfg.Workers = w
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			for _, pair := range asyncPairs() {
				runPair(t, func() *comm.Machine { return comm.NewMachine(cfg) }, pair)
			}
		})
	}
}

// TestVectorSteppersContinuationStress is the -race stress over the
// vector/gather steppers at w < p: a chained continuation body (vector
// all-reduce, Bruck all-gather, hypercube route) runs
// repeatedly so suspend/resume events land on arbitrary workers while
// pooled stepper state is recycled across ops and run boundaries.
func TestVectorSteppersContinuationStress(t *testing.T) {
	const p, rounds = 24, 6
	for _, w := range []int{1, 3} {
		cfg := comm.DefaultConfig(p)
		cfg.Workers = w
		m := comm.NewMachine(cfg)
		for round := 0; round < rounds; round++ {
			round := round
			var results [p]int64
			m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
				var vecSum, concatSum, routeSum int64
				x := []int64{int64(pe.Rank() + round), 3}
				return comm.SeqP(pe,
					AllReduceIntoStep(pe, nil, x, func(a, b int64) int64 { return a + b }, func(v []int64) {
						vecSum = v[0] + v[1]
					}),
					AllGatherConcatStep(pe, []int64{int64(pe.Rank())}, func(v []int64) {
						for _, e := range v {
							concatSum += e
						}
					}),
					RouteCombineStep(pe, routeItems(pe), routedDest, nil, func(got []routed) {
						for _, it := range got {
							routeSum += it.Payload
						}
					}),
					comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
						results[pe.Rank()] = vecSum + concatSum + routeSum
						return nil
					}),
				)
			})
			// Closed-form expectations keep the stress honest.
			base := int64(p*(p-1)/2) + int64(p*round) + 3*int64(p) // vector all-reduce
			gather := int64(p * (p - 1) / 2)                       // the all-gather
			for r := 0; r < p; r++ {
				want := base + gather
				for src := 0; src < p; src++ {
					want += int64(src*100+r) + int64(r*r)
				}
				if results[r] != want {
					t.Fatalf("w=%d round %d rank %d: got %d want %d", w, round, r, results[r], want)
				}
			}
		}
		m.Close()
	}
}

// TestReduceConcatStep pins the up-sweep: the root — and only the root —
// receives the elementwise header sums and every PE's block in rank order
// starting at itself; one message per tree edge, none from the root; and
// the meters do not depend on the executor or on who drives the stepper.
func TestReduceConcatStep(t *testing.T) {
	block := func(rank int) []int64 { // rank r contributes (3r mod 5) copies of r
		b := make([]int64, (3*rank)%5)
		for i := range b {
			b[i] = int64(rank)
		}
		return b
	}
	for _, p := range []int{1, 2, 3, 5, 8, 13, 64} {
		for _, root := range []int{0, p / 2, p - 1} {
			var wantAll []int64
			wantSums := []int64{0, int64(p), 0}
			for i := 0; i < p; i++ {
				r := (root + i) % p
				wantAll = append(wantAll, block(r)...)
				wantSums[0] += int64(r + 1)
				wantSums[2] += int64(len(block(r)))
			}
			var ref comm.Stats
			for ri, rig := range []struct {
				name  string
				m     *comm.Machine
				async bool
			}{
				{"mailbox/async", comm.NewMachine(comm.DefaultConfig(p)), true},
				{"mailbox/blocking", comm.NewMachine(comm.DefaultConfig(p)), false},
				{"chanmatrix/async", simexec.Reference(p), true},
			} {
				name := fmt.Sprintf("p=%d root=%d %s", p, root, rig.name)
				calls := make([]int, p)
				mk := func(pe *comm.PE) comm.Stepper {
					rank := pe.Rank()
					b := block(rank)
					return ReduceConcatStep(pe, root, []int64{int64(rank + 1), 1, int64(len(b))}, b,
						func(sums, all []int64) {
							calls[rank]++
							if rank != root {
								if sums != nil || all != nil {
									t.Errorf("%s: rank %d received (%v, %v), want nothing", name, rank, sums, all)
								}
								return
							}
							if !slices.Equal(sums, wantSums) || !slices.Equal(all, wantAll) {
								t.Errorf("%s: root received sums %v, blocks %v; want %v, %v", name, sums, all, wantSums, wantAll)
							}
						})
				}
				if rig.async {
					rig.m.MustRunAsync(mk)
				} else {
					rig.m.MustRun(func(pe *comm.PE) { comm.RunSteps(pe, mk(pe)) })
				}
				for r, c := range calls {
					if c != 1 {
						t.Errorf("%s: rank %d's callback ran %d times", name, r, c)
					}
				}
				st := rig.m.Stats()
				if st.TotalSends != int64(p-1) || st.MaxSends != int64(min(1, p-1)) {
					t.Errorf("%s: %d messages, at most %d per PE; want %d and %d",
						name, st.TotalSends, st.MaxSends, p-1, min(1, p-1))
				}
				if ri == 0 {
					ref = st
				} else if st != ref {
					t.Errorf("%s: meters %+v, want %+v", name, st, ref)
				}
				rig.m.Close()
			}
		}
	}
}
