package coll

import (
	"fmt"
	"math/bits"
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
			name: "AllReduceScalar",
			block: func(pe *comm.PE, out *any) {
				*out = AllReduceScalar(pe, int64(pe.Rank())+7, sum)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return AllReduceScalarStep(pe, int64(pe.Rank())+7, sum, func(v int64) { *out = v })
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
			name: "BroadcastScalar",
			block: func(pe *comm.PE, out *any) {
				*out = BroadcastScalar(pe, 0, int64(pe.Rank())+41)
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				return BroadcastVecStep(pe, 0, []int64{int64(pe.Rank()) + 41}, func(v []int64) { *out = v[0] })
			},
		},
		{
			// One selection level's collectives in a row: a size sum, the
			// up-sweep, the verdict's broadcast.
			name: "ChainedSuite",
			block: func(pe *comm.PE, out *any) {
				a := AllReduceScalar(pe, int64(pe.Rank()), sum)
				var b int64
				comm.RunSteps(pe, chainUp(pe, &b))
				c := BroadcastScalar(pe, 0, int64(pe.Rank())+41)
				*out = a + b + c
			},
			start: func(pe *comm.PE, out *any) comm.Stepper {
				var a, b, c int64
				return comm.SeqP(pe,
					AllReduceScalarStep(pe, int64(pe.Rank()), sum, func(v int64) { a = v }),
					chainUp(pe, &b),
					BroadcastVecStep(pe, 0, []int64{int64(pe.Rank()) + 41}, func(v []int64) { c = v[0] }),
					comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle { *out = a + b + c; return nil }),
				)
			},
		},
	}
}

// chainUp is ChainedSuite's up-sweep: a two-counter header and a one-word
// block per PE; the root folds what it receives into *b.
func chainUp(pe *comm.PE, b *int64) comm.Stepper {
	return ReduceConcatStep(pe, 0, []int64{int64(pe.Rank() + 1), 1}, 1, []int64{int64(pe.Rank() * 3)},
		func(sums, all []int64) {
			if sums != nil {
				*b = sums[0]*1000 + sums[1]
				for _, v := range all {
					*b += v
				}
			}
		})
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
// steppers at w < p: a chained continuation body (vector all-reduce, the
// up-sweep, the scalar broadcast, the scalar all-reduce) runs repeatedly
// so suspend/resume events land on arbitrary workers while pooled stepper
// state is recycled across ops and run boundaries.
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
				var vecSum, concatSum, bcast, sqSum int64
				var down comm.Stepper
				x := []int64{int64(pe.Rank() + round), 3}
				return comm.SeqP(pe,
					AllReduceIntoStep(pe, nil, x, func(a, b int64) int64 { return a + b }, func(v []int64) {
						vecSum = v[0] + v[1]
					}),
					ReduceConcatStep(pe, 0, []int64{1}, 1, []int64{int64(pe.Rank())}, func(_, all []int64) {
						for _, e := range all {
							concatSum += e
						}
					}),
					comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
						// The root's gathered sum, sent down the tree: built
						// once the up-sweep is done.
						if down == nil {
							down = BroadcastVecStep(pe, 0, []int64{concatSum}, func(v []int64) { bcast = v[0] })
						}
						return down.Step(pe)
					}),
					AllReduceScalarStep(pe, int64(pe.Rank()*pe.Rank()), func(a, b int64) int64 { return a + b }, func(v int64) {
						sqSum = v
					}),
					comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
						results[pe.Rank()] = vecSum + bcast + sqSum
						return nil
					}),
				)
			})
			// Closed-form expectations keep the stress honest.
			want := int64(p*(p-1)/2) + int64(p*round) + 3*int64(p) // vector all-reduce
			want += int64(p * (p - 1) / 2)                         // the gathered ranks
			want += int64((p - 1) * p * (2*p - 1) / 6)             // the squares
			for r := 0; r < p; r++ {
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
// With segments, the root receives segment 0 of every PE in rank order,
// then segment 1, and so on, on ragged and empty segments, and the edges
// carry the header and the data, nothing more.
func TestReduceConcatStep(t *testing.T) {
	t.Run("segments", testReduceConcatSegments)
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
					return ReduceConcatStep(pe, root, []int64{int64(rank + 1), 1, int64(len(b))}, 1, b,
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

// testReduceConcatSegments is TestReduceConcatStep's segment-aware part.
func testReduceConcatSegments(t *testing.T) {
	// PE r's segment j holds (r + 2j) mod 4 elements: ragged, and empty
	// on some PEs in every segment.
	seg := func(r, j int) []int64 {
		b := make([]int64, (r+2*j)%4)
		for i := range b {
			b[i] = int64(1000*r + 10*j + i)
		}
		return b
	}
	for _, p := range []int{1, 2, 3, 5, 16} {
		for _, segs := range []int{2, 3, 5} {
			for _, root := range []int{0, p - 1} {
				wantSums := make([]int64, 1+segs-1)
				var wantAll []int64
				for j := range segs {
					for i := range p {
						r := (root + i) % p
						wantAll = append(wantAll, seg(r, j)...)
						if j < segs-1 {
							wantSums[1+j] += int64(len(seg(r, j)))
						}
					}
				}
				for r := range p {
					wantSums[0] += int64(r + 1)
				}
				var ref comm.Stats
				for ri, rig := range []struct {
					name string
					m    *comm.Machine
				}{
					{"mailbox", comm.NewMachine(comm.DefaultConfig(p))},
					{"chanmatrix", simexec.Reference(p)},
				} {
					name := fmt.Sprintf("p=%d segs=%d root=%d %s", p, segs, root, rig.name)
					got := 0
					rig.m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						rank := pe.Rank()
						hdr := []int64{int64(rank + 1)}
						var data []int64
						for j := range segs {
							data = append(data, seg(rank, j)...)
							if j < segs-1 {
								hdr = append(hdr, int64(len(seg(rank, j))))
							}
						}
						return ReduceConcatStep(pe, root, hdr, segs, data, func(sums, all []int64) {
							if rank != root {
								return
							}
							got++
							if !slices.Equal(sums, wantSums) || !slices.Equal(all, wantAll) {
								t.Errorf("%s: root received sums %v, data %v; want %v, %v", name, sums, all, wantSums, wantAll)
							}
						})
					})
					st := rig.m.Stats()
					if got != 1 || st.TotalSends != int64(p-1) {
						t.Errorf("%s: root callback ran %d times, %d messages; want 1 and %d", name, got, st.TotalSends, p-1)
					}
					if hdrWords := int64(segs * (p - 1)); st.TotalWords < hdrWords {
						t.Errorf("%s: %d words, fewer than the headers' %d", name, st.TotalWords, hdrWords)
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
}

// TestBroadcastVecStep pins the vector broadcast: every PE receives the
// root's vector, on every executor, by p−1 messages of len(v) elements
// each, at most ⌈log₂ p⌉ from one PE; the one-element vector is
// BroadcastScalar's message schedule, word for word.
func TestBroadcastVecStep(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 16} {
		logp := int64(bits.Len(uint(p - 1)))
		for _, n := range []int{0, 1, 3, 7} {
			for _, root := range []int{0, p - 1} {
				want := make([]int64, n)
				for i := range want {
					want[i] = int64(100*root + i)
				}
				var ref comm.Stats
				for ri, rig := range []struct {
					name string
					m    *comm.Machine
				}{
					{"mailbox", comm.NewMachine(comm.DefaultConfig(p))},
					{"chanmatrix", simexec.Reference(p)},
				} {
					name := fmt.Sprintf("p=%d n=%d root=%d %s", p, n, root, rig.name)
					got := make([][]int64, p)
					rig.m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						var v []int64
						if pe.Rank() == root {
							v = slices.Clone(want)
						}
						return BroadcastVecStep(pe, root, v, func(v []int64) { got[pe.Rank()] = slices.Clone(v) })
					})
					for r, g := range got {
						if !slices.Equal(g, want) {
							t.Errorf("%s: rank %d received %v, want %v", name, r, g, want)
						}
					}
					st := rig.m.Stats()
					if st.TotalSends != int64(p-1) || st.TotalWords != int64(n*(p-1)) || st.MaxSends > logp {
						t.Errorf("%s: %d messages, %d words, at most %d per PE; want %d, %d, ≤ %d",
							name, st.TotalSends, st.TotalWords, st.MaxSends, p-1, n*(p-1), logp)
					}
					if ri == 0 {
						ref = st
					} else if st != ref {
						t.Errorf("%s: meters %+v, want %+v", name, st, ref)
					}
					rig.m.Close()
				}
				if n != 1 {
					continue
				}
				m := comm.NewMachine(comm.DefaultConfig(p))
				m.MustRun(func(pe *comm.PE) {
					v := int64(-1) // ignored off the root
					if pe.Rank() == root {
						v = want[0]
					}
					if v = BroadcastScalar(pe, root, v); v != want[0] {
						t.Errorf("p=%d root=%d: BroadcastScalar on rank %d gave %d, want %d", p, root, pe.Rank(), v, want[0])
					}
				})
				if st := m.Stats(); st.TotalSends != int64(p-1) || st.TotalWords != int64(p-1) || st.MaxSends > logp {
					t.Errorf("p=%d root=%d: BroadcastScalar sent %+v", p, root, st)
				}
				m.Close()
			}
		}
	}
}
