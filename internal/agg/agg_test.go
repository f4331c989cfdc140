package agg

import (
	"math"
	"sort"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/xrand"
)

// workload builds per-PE weighted inputs and the exact global sums.
func workload(seed int64, p, perPE, universe int) (keysByPE [][]uint64, valsByPE [][]float64, exact map[uint64]float64) {
	z := gen.NewZipf(universe, 1)
	keysByPE = make([][]uint64, p)
	valsByPE = make([][]float64, p)
	exact = map[uint64]float64{}
	for r := 0; r < p; r++ {
		k, v := gen.WeightedInput(xrand.NewPE(seed, r), z, perPE)
		keysByPE[r], valsByPE[r] = k, v
		for i := range k {
			exact[k[i]] += v[i]
		}
	}
	return
}

func exactTopSums(exact map[uint64]float64, k int) []ItemSum {
	all := make([]ItemSum, 0, len(exact))
	for key, s := range exact {
		all = append(all, ItemSum{key, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Sum != all[j].Sum {
			return all[i].Sum > all[j].Sum
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sumEpsTilde is the ε̃ error adapted to sums: best missed sum minus worst
// returned sum, relative to the total mass.
func sumEpsTilde(exact map[uint64]float64, out []ItemSum, m float64) float64 {
	outSet := map[uint64]bool{}
	minOut := math.Inf(1)
	for _, it := range out {
		outSet[it.Key] = true
		if s := exact[it.Key]; s < minOut {
			minOut = s
		}
	}
	maxMissed := 0.0
	for k, s := range exact {
		if !outSet[k] && s > maxMissed {
			maxMissed = s
		}
	}
	if maxMissed <= minOut {
		return 0
	}
	return (maxMissed - minOut) / m
}

func totalMass(exact map[uint64]float64) float64 {
	var m float64
	for _, v := range exact {
		m += v
	}
	return m
}

func TestPACApproximatesTopSums(t *testing.T) {
	for _, p := range []int{1, 4, 6} {
		keys, vals, exact := workload(3, p, 4000, 1<<10)
		m := totalMass(exact)
		params := Params{K: 8, Eps: 0.01, Delta: 0.01}
		mach := comm.NewMachine(comm.DefaultConfig(p))
		var res Result
		mach.MustRun(func(pe *comm.PE) {
			r := PAC(pe, keys[pe.Rank()], vals[pe.Rank()], params, xrand.NewPE(7, pe.Rank()))
			if pe.Rank() == 0 {
				res = r
			}
		})
		if len(res.Items) != params.K {
			t.Fatalf("p=%d: %d items", p, len(res.Items))
		}
		if e := sumEpsTilde(exact, res.Items, m); e > params.Eps {
			t.Errorf("p=%d: sum ε̃=%v exceeds %v", p, e, params.Eps)
		}
		// Estimated sums must be within ε·m of truth for returned keys.
		for _, it := range res.Items {
			if math.Abs(it.Sum-exact[it.Key]) > params.Eps*m*2 {
				t.Errorf("p=%d: key %d sum estimate %v vs exact %v", p, it.Key, it.Sum, exact[it.Key])
			}
		}
	}
}

func TestECSumIsExact(t *testing.T) {
	const p = 4
	keys, vals, exact := workload(11, p, 3000, 1<<9)
	m := totalMass(exact)
	mach := comm.NewMachine(comm.DefaultConfig(p))
	var res Result
	mach.MustRun(func(pe *comm.PE) {
		r := ECSum(pe, keys[pe.Rank()], vals[pe.Rank()], Params{K: 6, Eps: 0.01, Delta: 0.01}, xrand.NewPE(13, pe.Rank()))
		if pe.Rank() == 0 {
			res = r
		}
	})
	if !res.Exact {
		t.Fatal("ECSum not exact")
	}
	for _, it := range res.Items {
		if math.Abs(it.Sum-exact[it.Key]) > 1e-6 {
			t.Errorf("key %d: sum %v, exact %v", it.Key, it.Sum, exact[it.Key])
		}
	}
	if e := sumEpsTilde(exact, res.Items, m); e > 0.01 {
		t.Errorf("ECSum ε̃=%v", e)
	}
}

func TestECSumSamplesLessThanPAC(t *testing.T) {
	const p = 4
	keys, vals, _ := workload(17, p, 4000, 1<<10)
	params := Params{K: 8, Eps: 0.005, Delta: 0.01}
	mach := comm.NewMachine(comm.DefaultConfig(p))
	var pacS, ecS int64
	mach.MustRun(func(pe *comm.PE) {
		r1 := PAC(pe, keys[pe.Rank()], vals[pe.Rank()], params, xrand.NewPE(19, pe.Rank()))
		r2 := ECSum(pe, keys[pe.Rank()], vals[pe.Rank()], params, xrand.NewPE(23, pe.Rank()))
		if pe.Rank() == 0 {
			pacS, ecS = r1.SampleSize, r2.SampleSize
		}
	})
	if ecS >= pacS {
		t.Errorf("ECSum sample %d not below PAC's %d", ecS, pacS)
	}
}

func TestExactTopSums(t *testing.T) {
	const p = 3
	keys, vals, exact := workload(29, p, 1500, 1<<8)
	want := exactTopSums(exact, 5)
	mach := comm.NewMachine(comm.DefaultConfig(p))
	mach.MustRun(func(pe *comm.PE) {
		got := ExactTopSums(pe, keys[pe.Rank()], vals[pe.Rank()], 5, xrand.NewPE(31, pe.Rank()))
		if len(got) != 5 {
			t.Errorf("got %d items", len(got))
			return
		}
		for i := range got {
			if got[i].Key != want[i].Key {
				t.Errorf("rank %d: key %d, want %d", i, got[i].Key, want[i].Key)
			}
			if math.Abs(got[i].Sum-want[i].Sum) > 1e-4*want[i].Sum {
				t.Errorf("rank %d: sum %v, want %v", i, got[i].Sum, want[i].Sum)
			}
		}
	})
}

func TestLocalAggregate(t *testing.T) {
	m := LocalAggregate([]uint64{1, 2, 1}, []float64{1.5, 2, 0.5})
	defer m.Release()
	if v1, _ := m.Get(1); v1 != 2 {
		t.Errorf("aggregate[1] = %v", v1)
	}
	if v2, _ := m.Get(2); v2 != 2 {
		t.Errorf("aggregate[2] = %v", v2)
	}
	if m.Len() != 2 || m.Total() != 4 {
		t.Errorf("Len=%d Total=%v", m.Len(), m.Total())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative value should panic")
		}
	}()
	LocalAggregate([]uint64{1}, []float64{-1})
}

func TestSampleAggregatedDeviationAtMostOne(t *testing.T) {
	// Per key, the sample count must deviate from v/vavg by < 1.
	rng := xrand.New(37)
	local := LocalAggregate([]uint64{1, 2, 3}, []float64{10.3, 0.7, 99.99})
	defer local.Release()
	const vavg = 1.0
	for trial := 0; trial < 100; trial++ {
		kvs, total := sampleAggregated(&local, vavg, rng)
		s := map[uint64]int64{}
		var sum int64
		for _, kv := range kvs {
			s[kv.Key] = kv.Count
			sum += kv.Count
		}
		if sum != total {
			t.Fatalf("reported sample size %d, summed %d", total, sum)
		}
		for i, k := range local.Keys {
			q := local.Sums[i] / vavg
			c := float64(s[k])
			if c < math.Floor(q) || c > math.Ceil(q) {
				t.Fatalf("key %d: count %v outside [floor,ceil] of %v", k, c, q)
			}
		}
	}
}

func TestPACEmptyInput(t *testing.T) {
	mach := comm.NewMachine(comm.DefaultConfig(2))
	mach.MustRun(func(pe *comm.PE) {
		res := PAC(pe, nil, nil, Params{K: 3, Eps: 0.1, Delta: 0.1}, xrand.NewPE(41, pe.Rank()))
		if len(res.Items) != 0 {
			t.Errorf("empty input yielded %v", res.Items)
		}
	})
}
