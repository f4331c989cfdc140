package sel

import (
	"fmt"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// shardShapes are the input families the sorted form is pinned on: each
// returns p unsorted shards holding n keys in total.
var shardShapes = []struct {
	name string
	gen  func(rng *xrand.RNG, n, p int) [][]uint64
}{
	{"unique", func(rng *xrand.RNG, n, p int) [][]uint64 {
		global, _ := globalSorted(rng, n)
		return distribute(global, p)
	}},
	// 90 % of the input is one value: the pivLo == pivHi exit.
	{"dup-groups", func(rng *xrand.RNG, n, p int) [][]uint64 {
		global := make([]uint64, n)
		for i := range global {
			global[i] = 500000
			if i%10 == 0 {
				global[i] = uint64(rng.Intn(1000000))
			}
		}
		return distribute(global, p)
	}},
	// Two distinct values: once the pivots are the two of them no band
	// shrinks the window, which is the tie-peel branch.
	{"two-values", func(rng *xrand.RNG, n, p int) [][]uint64 {
		global := make([]uint64, n)
		for i := range global {
			global[i] = 10 + 10*uint64(rng.Intn(2))
		}
		return distribute(global, p)
	}},
	{"all-equal", func(_ *xrand.RNG, n, p int) [][]uint64 {
		global := make([]uint64, n)
		for i := range global {
			global[i] = 7
		}
		return distribute(global, p)
	}},
	// One value fills the middle 40 % of the ranks, unique keys lie below
	// and above it: a tie group no pivot pair can split, straddling every
	// rank near the median.
	{"giant-tie", func(rng *xrand.RNG, n, p int) [][]uint64 {
		global := make([]uint64, n)
		for i := range global {
			switch {
			case i < 3*n/10:
				global[i] = uint64(i)
			case i < 7*n/10:
				global[i] = 1 << 20
			default:
				global[i] = 1<<21 + uint64(i)
			}
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			global[i], global[j] = global[j], global[i]
		}
		return distribute(global, p)
	}},
	// Only every third PE holds data.
	{"empty-some", func(rng *xrand.RNG, n, p int) [][]uint64 {
		global, _ := globalSorted(rng, n)
		shards := make([][]uint64, p)
		for i, part := range distribute(global, (p+2)/3) {
			shards[3*i] = part
		}
		return shards
	}},
	{"one-pe", func(rng *xrand.RNG, n, p int) [][]uint64 {
		global, _ := globalSorted(rng, n)
		shards := make([][]uint64, p)
		shards[p-1] = global
		return shards
	}},
}

// sortedShards returns an ascending copy of every shard and the sorted
// union (the oracle).
func sortedShards(shards [][]uint64) (sorted [][]uint64, union []uint64) {
	sorted = make([][]uint64, len(shards))
	for r, sh := range shards {
		sorted[r] = slices.Clone(sh)
		slices.Sort(sorted[r])
		union = append(union, sh...)
	}
	slices.Sort(union)
	return sorted, union
}

// runKthSorted runs one sorted-form selection on m — under RunAsync, or
// as a blocking body driving the stepper with RunSteps — and returns the
// per-PE results and that run's meters.
func runKthSorted(m *comm.Machine, async bool, sorted [][]uint64, k, seed int64) ([]uint64, comm.Stats) {
	var n int64
	for _, sh := range sorted {
		n += int64(len(sh))
	}
	res := make([]uint64, m.P())
	m.ResetStats()
	mk := func(pe *comm.PE) comm.Stepper {
		return KthSortedStep(pe, sorted[pe.Rank()], n, k, xrand.NewPE(seed, pe.Rank()),
			func(v uint64) { res[pe.Rank()] = v })
	}
	if async {
		m.MustRunAsync(mk)
	} else {
		m.MustRun(func(pe *comm.PE) { comm.RunSteps(pe, mk(pe)) })
	}
	return res, m.Stats()
}

// runKth is the unsorted one-shot form on the same machine.
func runKth(m *comm.Machine, shards [][]uint64, k, seed int64) ([]uint64, comm.Stats) {
	res := make([]uint64, m.P())
	m.ResetStats()
	m.MustRun(func(pe *comm.PE) {
		res[pe.Rank()] = Kth(pe, shards[pe.Rank()], k, xrand.NewPE(seed, pe.Rank()))
	})
	return res, m.Stats()
}

// TestKthSortedDifferential pins KthSortedStep against the sort oracle
// and against Kth on the same multiset, and its results and all six
// Stats fields bit-identical across drivers (blocking RunSteps, RunAsync,
// RunAsync at w < p) and executors (production, simexec reference — the
// "matrix" legs, named before that package existed).
func TestKthSortedDifferential(t *testing.T) {
	const n = 3000
	for _, p := range []int{1, 2, 3, 8, 64} {
		wLess := comm.DefaultConfig(p)
		wLess.Workers = min(2, p)
		rigs := []struct {
			name  string
			m     *comm.Machine
			async bool
		}{
			{"mailbox/blocking", comm.NewMachine(comm.DefaultConfig(p)), false},
			{"mailbox/async", comm.NewMachine(comm.DefaultConfig(p)), true},
			{"mailbox/async/w<p", comm.NewMachine(wLess), true},
			{"matrix/blocking", simexec.Reference(p), false},
			{"matrix/async", simexec.Reference(p), true},
		}
		for si, shape := range shardShapes {
			shards := shape.gen(xrand.New(int64(100*p+si)), n, p)
			sorted, union := sortedShards(shards)
			for _, k := range []int64{1, 2, n / 2, n - 1, n} {
				name := fmt.Sprintf("p=%d/%s/k=%d", p, shape.name, k)
				want := union[k-1]
				const seed = 97
				unsorted, _ := runKth(rigs[0].m, shards, k, seed)
				var refStats comm.Stats
				for i, rig := range rigs {
					res, stats := runKthSorted(rig.m, rig.async, sorted, k, seed)
					for r := range res {
						if res[r] != want || unsorted[r] != want {
							t.Fatalf("%s %s rank %d: sorted form %d, Kth %d, oracle %d",
								name, rig.name, r, res[r], unsorted[r], want)
						}
					}
					if i == 0 {
						refStats = stats
					} else if stats != refStats {
						t.Errorf("%s: meters diverge:\n  %s: %+v\n  %s: %+v",
							name, rigs[0].name, refStats, rig.name, stats)
					}
				}
			}
		}
		for _, rig := range rigs {
			rig.m.Close()
		}
	}
}

// TestKthWindowOpsAgree: the two forms differ only in their local window
// operations, so on one multiset — ascending for the sorted form, in any
// order for the other — those must return the same band counts and
// minimum.
func TestKthWindowOpsAgree(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 500; trial++ {
		w := make([]uint64, rng.Intn(40))
		for i := range w {
			w[i] = uint64(rng.Intn(12))
		}
		asc := slices.Clone(w)
		slices.Sort(asc)
		lo := uint64(rng.Intn(14))
		hi := lo + uint64(rng.Intn(4))
		sorted := &kthStep[uint64]{sorted: true, win: asc}
		scan := &kthStep[uint64]{win: w}
		if sorted.winMin() != scan.winMin() {
			t.Fatalf("minimum of %v: sorted form %v, scan %v", asc, sorted.winMin(), scan.winMin())
		}
		la, lb := sorted.bands(asc, lo, hi)
		sa, sb := scan.bands(w, lo, hi)
		if la != sa || lb != sb {
			t.Fatalf("bands of %v around [%d, %d]: sorted form (%d, %d), scan (%d, %d)", asc, lo, hi, la, lb, sa, sb)
		}
	}
	if raceEnabled {
		return
	}
	st := &kthStep[uint64]{sorted: true, win: []uint64{1, 2, 2, 3, 5, 8}}
	if a := testing.AllocsPerRun(100, func() { st.bands(st.win, 2, 5); st.winMin() }); a != 0 {
		t.Errorf("sorted-form window operations allocate %.0f times per level", a)
	}
}

// TestKthSortedNeverWritesTheShard: the resident shard is shared by every
// query a server ever runs, so after 200 selections over all shapes —
// including the rate-1 sweeps, which hand the window itself to the
// collective — it must be byte-identical to a saved copy.
func TestKthSortedNeverWritesTheShard(t *testing.T) {
	for _, p := range []int{1, 8} { // p = 1: the root's buffer must still be a copy
		neverWritesTheShard(t, p)
	}
}

func neverWritesTheShard(t *testing.T, p int) {
	const n, perShape = 2000, 34 // 7 shapes × 34 ≥ 200 queries
	cfg := comm.DefaultConfig(p)
	cfg.Workers = min(2, p)
	m := comm.NewMachine(cfg)
	defer m.Close()
	for si, shape := range shardShapes {
		sorted, union := sortedShards(shape.gen(xrand.New(int64(si)), n, p))
		saved := make([][]uint64, p)
		for r := range sorted {
			saved[r] = slices.Clone(sorted[r])
		}
		for q := 0; q < perShape; q++ {
			k := int64(1 + q*(n-1)/(perShape-1))
			res, _ := runKthSorted(m, q%2 == 0, sorted, k, int64(q))
			if res[0] != union[k-1] {
				t.Fatalf("p=%d %s k=%d: got %d want %d", p, shape.name, k, res[0], union[k-1])
			}
		}
		for r := range sorted {
			if !slices.Equal(sorted[r], saved[r]) {
				t.Fatalf("p=%d %s: rank %d's resident shard was written", p, shape.name, r)
			}
		}
	}
}

// TestKthSortedSkipsTheSizeAllReduce: the sorted form is told n, so it
// pays ⌈log₂ p⌉ fewer startups per PE than the one-shot form. The two
// forms walk different pivots on one seed (same sample positions,
// differently ordered windows), so the claim is about the mean.
func TestKthSortedSkipsTheSizeAllReduce(t *testing.T) {
	const p, n, seeds = 16, 8192, 100
	shards := shardShapes[0].gen(xrand.New(3), n, p)
	sorted, _ := sortedShards(shards)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	var sendsSorted, sendsUnsorted int64
	for seed := int64(0); seed < seeds; seed++ {
		_, st := runKthSorted(m, true, sorted, n/2, seed)
		sendsSorted += st.TotalSends
		_, st = runKth(m, shards, n/2, seed)
		sendsUnsorted += st.TotalSends
	}
	perPE := func(total int64) float64 { return float64(total) / (seeds * p) }
	t.Logf("mean startups/PE over %d seeds: sorted form %.2f, unsorted form %.2f",
		seeds, perPE(sendsSorted), perPE(sendsUnsorted))
	if sendsSorted >= sendsUnsorted {
		t.Errorf("sorted form sends %.2f startups/PE, unsorted %.2f: the size all-reduce is not gone",
			perPE(sendsSorted), perPE(sendsUnsorted))
	}
}

// FuzzKthSorted: any multiset, any distribution over the PEs, any rank —
// the sorted form, the one-shot form and a sort must agree.
func FuzzKthSorted(f *testing.F) {
	for shape := range shardShapes {
		f.Add(int64(shape), uint8(shape), uint8(shape), uint16(700*shape), uint32(123*shape))
	}
	// The tie-heavy shapes at a rank inside the tie group, p = 8.
	for shape, sh := range shardShapes {
		switch sh.name {
		case "all-equal", "two-values", "giant-tie", "dup-groups":
			f.Add(int64(31), uint8(4), uint8(shape), uint16(2999), uint32(1500))
		}
	}
	f.Add(int64(9), uint8(4), uint8(1), uint16(0), uint32(0))       // n = 1
	f.Add(int64(9), uint8(3), uint8(2), uint16(2999), uint32(2999)) // k = n
	f.Fuzz(func(t *testing.T, seed int64, pSel, shapeSel uint8, nRaw uint16, kRaw uint32) {
		p := []int{1, 2, 3, 5, 8}[int(pSel)%5]
		n := int(nRaw)%3000 + 1
		k := int64(kRaw)%int64(n) + 1
		shape := shardShapes[int(shapeSel)%len(shardShapes)]
		shards := shape.gen(xrand.New(seed), n, p)
		sorted, union := sortedShards(shards)
		cfg := comm.DefaultConfig(p)
		cfg.Workers = min(2, p)
		m := comm.NewMachine(cfg)
		defer m.Close()
		got, _ := runKthSorted(m, true, sorted, k, seed)
		ref, _ := runKth(m, shards, k, seed)
		for r := range got {
			if got[r] != union[k-1] || ref[r] != union[k-1] {
				t.Fatalf("p=%d %s n=%d k=%d rank %d: sorted form %d, Kth %d, oracle %d",
					p, shape.name, n, k, r, got[r], ref[r], union[k-1])
			}
		}
	})
}
