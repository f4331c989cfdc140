package freq

import (
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/gen"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

// zipfWorkload builds the Section 10.2 workload: per-PE Zipf(s=1) streams
// over a shared universe.
func zipfWorkload(seed int64, p, perPE, universe int) ([][]uint64, map[uint64]int64) {
	z := gen.NewZipf(universe, 1)
	locals := make([][]uint64, p)
	exact := map[uint64]int64{}
	for r := 0; r < p; r++ {
		locals[r] = gen.FrequencyInput(xrand.NewPE(seed, r), z, perPE)
		for _, x := range locals[r] {
			exact[x]++
		}
	}
	return locals, exact
}

func totalOf(exact map[uint64]int64) int64 {
	var n int64
	for _, c := range exact {
		n += c
	}
	return n
}

func keysOf(items []dht.KV) []uint64 {
	out := make([]uint64, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}

type algo struct {
	name string
	run  func(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result
}

var allAlgos = []algo{
	{"PAC", PAC},
	{"EC", EC},
	{"ECSBF", ECSBF},
	{"Naive", Naive},
	{"NaiveTree", NaiveTree},
}

func TestAllAlgorithmsMeetEpsilonOnZipf(t *testing.T) {
	const perPE = 4000
	for _, p := range []int{1, 4, 7} {
		locals, exact := zipfWorkload(17, p, perPE, 1<<12)
		n := totalOf(exact)
		params := Params{K: 8, Eps: 0.01, Delta: 0.01}
		for _, a := range allAlgos {
			m := comm.NewMachine(comm.DefaultConfig(p))
			var res Result
			m.MustRun(func(pe *comm.PE) {
				r := a.run(pe, locals[pe.Rank()], params, xrand.NewPE(23, pe.Rank()))
				if pe.Rank() == 0 {
					res = r
				}
			})
			if len(res.Items) != params.K {
				t.Errorf("%s p=%d: returned %d items, want %d", a.name, p, len(res.Items), params.K)
				continue
			}
			errTilde := stats.EpsTilde(exact, keysOf(res.Items), n)
			if errTilde > params.Eps {
				t.Errorf("%s p=%d: ε̃=%v exceeds ε=%v", a.name, p, errTilde, params.Eps)
			}
		}
	}
}

func TestECCountsAreExact(t *testing.T) {
	const p = 4
	locals, exact := zipfWorkload(29, p, 3000, 1<<10)
	m := comm.NewMachine(comm.DefaultConfig(p))
	var res Result
	m.MustRun(func(pe *comm.PE) {
		r := EC(pe, locals[pe.Rank()], Params{K: 5, Eps: 0.01, Delta: 0.01}, xrand.NewPE(31, pe.Rank()))
		if pe.Rank() == 0 {
			res = r
		}
	})
	if !res.Exact {
		t.Fatal("EC result not marked exact")
	}
	for _, it := range res.Items {
		if exact[it.Key] != it.Count {
			t.Errorf("key %d: EC count %d, true count %d", it.Key, it.Count, exact[it.Key])
		}
	}
	if res.KStar < 5 {
		t.Errorf("KStar = %d < k", res.KStar)
	}
}

func TestECSampleSmallerThanPACForTightEps(t *testing.T) {
	// The Figure 8 regime: ε so small that PAC must sample everything
	// while EC still samples sparsely. (The paper uses ε=1e-6 at n=2^39;
	// scaled to our n=20000 the same crossover appears at ε=0.01, where
	// PAC's ε⁻² sample exceeds n but EC's ε⁻¹ sample does not.)
	const p = 4
	const perPE = 5000
	locals, _ := zipfWorkload(37, p, perPE, 1<<10)
	params := Params{K: 8, Eps: 0.01, Delta: 0.01}
	var pacSample, ecSample int64
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		r1 := PAC(pe, locals[pe.Rank()], params, xrand.NewPE(41, pe.Rank()))
		r2 := EC(pe, locals[pe.Rank()], params, xrand.NewPE(43, pe.Rank()))
		if pe.Rank() == 0 {
			pacSample, ecSample = r1.SampleSize, r2.SampleSize
		}
	})
	if pacSample < int64(p*perPE) {
		t.Errorf("PAC sample %d should be the full input %d at ε=1e-6", pacSample, p*perPE)
	}
	if ecSample >= pacSample {
		t.Errorf("EC sample %d not smaller than PAC's %d", ecSample, pacSample)
	}
}

func TestPECExactOnGappedDistribution(t *testing.T) {
	// Figure 5 scenario: clear gap between the top-k head and the tail.
	const p = 4
	freqTable := gen.GappedFrequencies(6, 400, 600, 5)
	stream := gen.Materialize(xrand.New(47), freqTable)
	locals := make([][]uint64, p)
	for i, x := range stream {
		locals[i%p] = append(locals[i%p], x)
	}
	n := int64(len(stream))
	m := comm.NewMachine(comm.DefaultConfig(p))
	var res Result
	m.MustRun(func(pe *comm.PE) {
		r := PEC(pe, locals[pe.Rank()], Params{K: 6, Eps: 0.05, Delta: 0.01}, 0.05, xrand.NewPE(53, pe.Rank()))
		if pe.Rank() == 0 {
			res = r
		}
	})
	if !res.Exact {
		t.Fatal("PEC did not detect the gap")
	}
	if e := stats.EpsTilde(freqTable, keysOf(res.Items), n); e != 0 {
		t.Errorf("PEC result not exact: ε̃=%v", e)
	}
	for _, it := range res.Items {
		if freqTable[it.Key] != it.Count {
			t.Errorf("key %d count %d, want %d", it.Key, it.Count, freqTable[it.Key])
		}
	}
}

func TestPECFallsBackOnFlatDistribution(t *testing.T) {
	// Near-uniform input: no gap, PEC must degrade gracefully.
	const p = 3
	locals := make([][]uint64, p)
	rng := xrand.New(59)
	for r := 0; r < p; r++ {
		for i := 0; i < 3000; i++ {
			locals[r] = append(locals[r], uint64(rng.Intn(500)))
		}
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	var res Result
	m.MustRun(func(pe *comm.PE) {
		r := PEC(pe, locals[pe.Rank()], Params{K: 5, Eps: 0.05, Delta: 0.01}, 0.2, xrand.NewPE(61, pe.Rank()))
		if pe.Rank() == 0 {
			res = r
		}
	})
	if len(res.Items) != 5 {
		t.Errorf("fallback returned %d items", len(res.Items))
	}
}

func TestPECZipf(t *testing.T) {
	const p = 4
	const universe = 1 << 10
	locals, exact := zipfWorkload(67, p, 8000, universe)
	n := totalOf(exact)
	m := comm.NewMachine(comm.DefaultConfig(p))
	var res Result
	m.MustRun(func(pe *comm.PE) {
		r := PECZipf(pe, locals[pe.Rank()], 4, 1.0, universe, 0.01, xrand.NewPE(71, pe.Rank()))
		if pe.Rank() == 0 {
			res = r
		}
	})
	if !res.Exact {
		t.Fatal("PECZipf not exact-counted")
	}
	if e := stats.EpsTilde(exact, keysOf(res.Items), n); e > 0.001 {
		t.Errorf("PECZipf ε̃=%v", e)
	}
	// Theorem 14: k* ≈ 3.41k for s=1.
	if res.KStar < 8 || res.KStar > 20 {
		t.Errorf("KStar = %d, want ≈ 3.41·4", res.KStar)
	}
}

func TestNaiveCoordinatorBottleneck(t *testing.T) {
	// The evaluation's point: Naive's coordinator receives Θ(p) messages;
	// PAC's bottleneck stays logarithmic-ish.
	const p = 16
	locals, _ := zipfWorkload(73, p, 2000, 1<<10)
	params := Params{K: 8, Eps: 0.02, Delta: 0.01}
	run := func(a algo) int64 {
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			a.run(pe, locals[pe.Rank()], params, xrand.NewPE(79, pe.Rank()))
		})
		return m.Stats().MaxRecvWords
	}
	naive := run(algo{"Naive", Naive})
	pac := run(algo{"PAC", PAC})
	if pac >= naive {
		t.Errorf("PAC bottleneck volume %d not below Naive's %d", pac, naive)
	}
}

func TestExactTopK(t *testing.T) {
	const p = 5
	locals, exact := zipfWorkload(83, p, 1000, 1<<8)
	want := stats.TopKOf(exact, 10)
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		got := ExactTopK(pe, locals[pe.Rank()], 10, xrand.NewPE(89, pe.Rank()))
		if len(got) != 10 {
			t.Errorf("ExactTopK returned %d items", len(got))
			return
		}
		for i, it := range got {
			if exact[it.Key] != it.Count {
				t.Errorf("item %d: count %d, want %d", i, it.Count, exact[it.Key])
			}
		}
		// Count multiset must match the true top-10 counts (keys may
		// differ on ties).
		for i := range got {
			if got[i].Count != exact[want[i]] {
				t.Errorf("rank %d: count %d, want %d", i, got[i].Count, exact[want[i]])
			}
		}
	})
}

func TestSelectTopKTieSplitting(t *testing.T) {
	// Many keys with equal counts: exactly k must come back.
	const p = 4
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		shard := make([]dht.KV, 50)
		for i := range shard {
			shard[i] = dht.KV{Key: uint64(pe.Rank()*1000 + i), Count: 7} // all tied
		}
		got := dht.SelectTopK(pe, shard, 33, xrand.NewPE(97, pe.Rank()))
		if len(got) != 33 {
			t.Errorf("tie splitting returned %d items, want 33", len(got))
		}
	})
}

func TestSelectTopKFewerThanK(t *testing.T) {
	const p = 3
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		shard := []dht.KV{{Key: uint64(pe.Rank()), Count: int64(pe.Rank() + 1)}}
		got := dht.SelectTopK(pe, shard, 10, xrand.NewPE(101, pe.Rank()))
		if len(got) != p {
			t.Errorf("got %d items, want all %d", len(got), p)
		}
		if got[0].Key != p-1 {
			t.Errorf("wrong order: %v", got)
		}
	})
}

func TestParamsValidation(t *testing.T) {
	m := comm.NewMachine(comm.DefaultConfig(1))
	err := m.Run(func(pe *comm.PE) {
		PAC(pe, []uint64{1}, Params{K: 0, Eps: 0.1, Delta: 0.1}, xrand.New(1))
	})
	if err == nil {
		t.Error("K=0 should panic")
	}
}
