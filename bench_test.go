// Benchmarks regenerating the paper's evaluation (one benchmark family
// per table/figure; see EXPERIMENTS.md for the mapping and recorded
// results). Custom metrics attached to every distributed benchmark:
//
//	words/PE — bottleneck communication volume (max words sent by any PE)
//	start/PE — bottleneck startup count
//
// Wall time per op measures the simulation on the host; the paper-shape
// claims live in the communication metrics and in the relative ordering
// of the algorithm variants.
package commtopk_test

import (
	"fmt"
	"slices"
	"testing"

	"commtopk/internal/agg"
	"commtopk/internal/bnb"
	"commtopk/internal/bpq"
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/mtopk"
	"commtopk/internal/redist"
	"commtopk/internal/sel"
	"commtopk/internal/treap"
	"commtopk/internal/xrand"
)

func reportComm(b *testing.B, m *comm.Machine) {
	s := m.Stats()
	b.ReportMetric(float64(s.BottleneckWords())/float64(b.N), "words/PE")
	b.ReportMetric(float64(s.MaxSends)/float64(b.N), "start/PE")
}

// --------------------------------------------------------------------------
// Figure 6 — weak scaling of unsorted selection
// --------------------------------------------------------------------------

func BenchmarkFig6_UnsortedSelection(b *testing.B) {
	const perPE = 1 << 16
	for _, p := range []int{1, 4, 16, 64} {
		for _, k := range []int64{1 << 10, 1 << 14} {
			name := fmt.Sprintf("p=%d/k=%d", p, k)
			b.Run(name, func(b *testing.B) {
				locals := make([][]uint64, p)
				for r := 0; r < p; r++ {
					locals[r] = gen.SelectionInput(xrand.NewPE(1, r), perPE, 12)
				}
				n := int64(p * perPE)
				m := comm.NewMachine(comm.DefaultConfig(p))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seed := int64(i)
					m.MustRun(func(pe *comm.PE) {
						sel.Kth(pe, locals[pe.Rank()], n-k+1, xrand.NewPE(seed, pe.Rank()))
					})
				}
				reportComm(b, m)
			})
		}
	}
}

// --------------------------------------------------------------------------
// Figures 7a / 7b / 8 — top-k most frequent objects, four algorithms
// --------------------------------------------------------------------------

func benchFreq(b *testing.B, perPE int, eps, delta float64) {
	algos := []struct {
		name string
		run  func(pe *comm.PE, local []uint64, p freq.Params, rng *xrand.RNG) freq.Result
	}{
		{"PAC", freq.PAC}, {"EC", freq.EC}, {"Naive", freq.Naive}, {"NaiveTree", freq.NaiveTree},
	}
	for _, p := range []int{4, 16} {
		z := gen.NewZipf(1<<14, 1)
		locals := make([][]uint64, p)
		for r := 0; r < p; r++ {
			locals[r] = gen.FrequencyInput(xrand.NewPE(2, r), z, perPE)
		}
		params := freq.Params{K: 32, Eps: eps, Delta: delta}
		for _, a := range algos {
			b.Run(fmt.Sprintf("p=%d/%s", p, a.name), func(b *testing.B) {
				m := comm.NewMachine(comm.DefaultConfig(p))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seed := int64(i)
					m.MustRun(func(pe *comm.PE) {
						a.run(pe, locals[pe.Rank()], params, xrand.NewPE(seed, pe.Rank()))
					})
				}
				reportComm(b, m)
			})
		}
	}
}

func BenchmarkFig7a_TopKFrequent(b *testing.B) { benchFreq(b, 1<<14, 0.02, 1e-4) }

func BenchmarkFig7b_TopKFrequent(b *testing.B) { benchFreq(b, 1<<16, 0.02, 1e-4) }

// Figure 8: accuracy strict enough that only EC can still sample.
func BenchmarkFig8_TopKFrequentStrict(b *testing.B) { benchFreq(b, 1<<16, 1e-4, 1e-8) }

// --------------------------------------------------------------------------
// Table 1 — one benchmark per problem at a representative configuration
// --------------------------------------------------------------------------

func BenchmarkTable1_UnsortedSelection(b *testing.B) {
	const p, perPE = 16, 1 << 16
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(3, r), perPE, 12)
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		m.MustRun(func(pe *comm.PE) {
			sel.Kth(pe, locals[pe.Rank()], int64(p*perPE/2), xrand.NewPE(seed, pe.Rank()))
		})
	}
	reportComm(b, m)
}

func BenchmarkTable1_UnsortedSelectionOldRandomized(b *testing.B) {
	const p, perPE = 16, 1 << 16
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(3, r), perPE, 12)
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		m.MustRun(func(pe *comm.PE) {
			sel.KthRandomized(pe, locals[pe.Rank()], int64(p*perPE/2), xrand.NewPE(seed, pe.Rank()))
		})
	}
	reportComm(b, m)
}

func sortedLocalsBench(seed int64, p, perPE int) [][]uint64 {
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		rng := xrand.NewPE(seed, r)
		l := make([]uint64, perPE)
		for i := range l {
			l[i] = rng.Uint64()<<32 | uint64(r)<<24 | uint64(i)&0xffffff
		}
		slices.Sort(l)
		locals[r] = l
	}
	return locals
}

func BenchmarkTable1_SortedSelectionExact(b *testing.B) {
	const p, perPE = 16, 1 << 10
	locals := sortedLocalsBench(4, p, perPE)
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MustRun(func(pe *comm.PE) {
			shared := xrand.New(int64(i))
			sel.MSSelect[uint64](pe, sel.SliceSeq[uint64](locals[pe.Rank()]), int64(p*perPE/2), shared)
		})
	}
	reportComm(b, m)
}

func BenchmarkTable1_SortedSelectionFlexible(b *testing.B) {
	const p, perPE = 16, 1 << 10
	locals := sortedLocalsBench(5, p, perPE)
	k := int64(p * perPE / 2)
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		m.MustRun(func(pe *comm.PE) {
			sel.AMSSelect[uint64](pe, sel.SliceSeq[uint64](locals[pe.Rank()]), k, 2*k, xrand.NewPE(seed, pe.Rank()))
		})
	}
	reportComm(b, m)
}

func BenchmarkTable1_BulkPQ(b *testing.B) {
	const p, perPE = 16, 1 << 12
	locals := sortedLocalsBench(6, p, perPE)
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		m.MustRun(func(pe *comm.PE) {
			q := bpq.New[uint64](pe, seed)
			q.InsertBulk(locals[pe.Rank()])
			q.DeleteMin(1 << 10)
		})
	}
	reportComm(b, m)
}

func BenchmarkTable1_SumAggregation(b *testing.B) {
	const p, perPE = 16, 1 << 14
	z := gen.NewZipf(1<<12, 1)
	keys := make([][]uint64, p)
	vals := make([][]float64, p)
	for r := 0; r < p; r++ {
		keys[r], vals[r] = gen.WeightedInput(xrand.NewPE(7, r), z, perPE)
	}
	params := agg.Params{K: 32, Eps: 0.02, Delta: 1e-4}
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		m.MustRun(func(pe *comm.PE) {
			agg.PAC(pe, keys[pe.Rank()], vals[pe.Rank()], params, xrand.NewPE(seed, pe.Rank()))
		})
	}
	reportComm(b, m)
}

func BenchmarkTable1_MulticriteriaDTA(b *testing.B) {
	const p, perPE, mCrit = 8, 1 << 12, 4
	datas := make([]*mtopk.Data, p)
	for r := 0; r < p; r++ {
		datas[r] = mtopk.NewData(mtopk.GenObjects(xrand.NewPE(8, r), perPE, mCrit, uint64(r)<<40), mCrit)
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		m.MustRun(func(pe *comm.PE) {
			mtopk.DTA(pe, datas[pe.Rank()], mtopk.SumScore, 16, xrand.NewPE(seed, pe.Rank()))
		})
	}
	reportComm(b, m)
}

func BenchmarkTable1_BranchAndBound(b *testing.B) {
	const p = 8
	instance := bnb.StronglyCorrelatedKnapsack(1, 20, 1000, 100)
	m := comm.NewMachine(comm.DefaultConfig(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		m.MustRun(func(pe *comm.PE) {
			bnb.Solve[bnb.KNode](pe, instance, seed)
		})
	}
	reportComm(b, m)
}

// --------------------------------------------------------------------------
// Ablations
// --------------------------------------------------------------------------

func BenchmarkAblation_AMSBatch(b *testing.B) {
	const p, perPE = 8, 1 << 12
	locals := sortedLocalsBench(9, p, perPE)
	kmin := int64(p * perPE / 2)
	kmax := kmin + int64(p*perPE/256)
	for _, d := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			m := comm.NewMachine(comm.DefaultConfig(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := int64(i)
				m.MustRun(func(pe *comm.PE) {
					sel.AMSSelectBatched[uint64](pe, sel.SliceSeq[uint64](locals[pe.Rank()]), kmin, kmax, d, xrand.NewPE(seed, pe.Rank()))
				})
			}
			reportComm(b, m)
		})
	}
}

func BenchmarkAblation_PQFlexible(b *testing.B) {
	const p, perPE = 8, 1 << 12
	locals := sortedLocalsBench(10, p, perPE)
	for _, flexible := range []bool{false, true} {
		name := "exact"
		if flexible {
			name = "flexible"
		}
		b.Run(name, func(b *testing.B) {
			m := comm.NewMachine(comm.DefaultConfig(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := int64(i)
				m.MustRun(func(pe *comm.PE) {
					q := bpq.New[uint64](pe, seed)
					q.InsertBulk(locals[pe.Rank()])
					if flexible {
						q.DeleteMinFlexible(512, 1024)
					} else {
						q.DeleteMin(512)
					}
				})
			}
			reportComm(b, m)
		})
	}
}

func BenchmarkAblation_DHTRouting(b *testing.B) {
	const p, distinct = 16, 2048
	for _, mode := range []dht.RouteMode{dht.RouteDirect, dht.RouteHypercube} {
		name := "direct"
		if mode == dht.RouteHypercube {
			name = "hypercube"
		}
		b.Run(name, func(b *testing.B) {
			m := comm.NewMachine(comm.DefaultConfig(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MustRun(func(pe *comm.PE) {
					local := make([]dht.KV, distinct)
					for k := range local {
						local[k] = dht.KV{Key: uint64(k), Count: int64(pe.Rank() + 1)}
					}
					commbuf.Put(dht.CountKV(pe, local, mode))
				})
			}
			reportComm(b, m)
		})
	}
}

func BenchmarkAblation_Redistribution(b *testing.B) {
	const p, perPE = 16, 1 << 12
	counts := make([]int64, p)
	for i := range counts {
		counts[i] = perPE
	}
	counts[0] += 3 * p // slight imbalance
	for _, naive := range []bool{false, true} {
		name := "adaptive"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			m := comm.NewMachine(comm.DefaultConfig(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := int64(i)
				m.MustRun(func(pe *comm.PE) {
					local := make([]uint64, counts[pe.Rank()])
					if naive {
						redist.NaiveExchange(pe, local, xrand.NewPE(seed, pe.Rank()))
					} else {
						redist.Balance(pe, local)
					}
				})
			}
			reportComm(b, m)
		})
	}
}

// --------------------------------------------------------------------------
// Substrate micro-benchmarks
// --------------------------------------------------------------------------

func BenchmarkSubstrate_Collectives(b *testing.B) {
	const p = 64
	ops := []struct {
		name string
		body func(pe *comm.PE)
	}{
		{"Broadcast", func(pe *comm.PE) { coll.Broadcast(pe, 0, []int64{1, 2, 3, 4}) }},
		{"AllReduce", func(pe *comm.PE) {
			coll.AllReduce(pe, []int64{int64(pe.Rank())}, func(a, b int64) int64 { return a + b })
		}},
		{"ExScan", func(pe *comm.PE) { coll.ExScanSum(pe, int64(pe.Rank())) }},
		{"AllGather", func(pe *comm.PE) { coll.AllGatherConcat(pe, []int64{int64(pe.Rank())}) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			m := comm.NewMachine(comm.DefaultConfig(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MustRun(op.body)
			}
			reportComm(b, m)
		})
	}
}

// BenchmarkSubstrate_MailboxScale exercises the machine at p = 1024,
// where its O(p) memory shows (~0.3 MB; w, not p, resident goroutines).
// CI runs this as the mailbox bench smoke with -benchtime=1x.
func BenchmarkSubstrate_MailboxScale(b *testing.B) {
	const p = 1024
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	body := func(pe *comm.PE) {
		coll.Broadcast(pe, 0, []int64{1, 2, 3, 4})
		coll.AllReduceScalar(pe, int64(pe.Rank()), func(a, b int64) int64 { return a + b })
		coll.ExScanSum(pe, int64(pe.Rank()))
		coll.Barrier(pe)
	}
	m.MustRun(body) // spawn the scheduler workers outside the timing
	m.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MustRun(body)
	}
	reportComm(b, m)
}

func BenchmarkSubstrate_TreapOps(b *testing.B) {
	const n = 1 << 16
	tr := treap.New[uint64](1)
	rng := xrand.New(2)
	for i := 0; i < n; i++ {
		tr.Insert(rng.Uint64())
	}
	b.Run("Insert+Delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := rng.Uint64()
			tr.Insert(v)
			tr.Delete(v)
		}
	})
	b.Run("Select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Select(i % tr.Len())
		}
	})
	b.Run("Rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Rank(rng.Uint64())
		}
	})
}

func BenchmarkSubstrate_Sampling(b *testing.B) {
	rng := xrand.New(3)
	b.Run("Geometric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng.Geometric(0.001)
		}
	})
	z := gen.NewZipf(1<<20, 1)
	b.Run("ZipfDraw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z.Draw(rng)
		}
	})
	b.Run("NegBinomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng.NegBinomial(1000, 0.05)
		}
	})
}
