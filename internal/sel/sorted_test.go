package sel

import (
	"fmt"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/qsel"
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

// kthQuery is one selection: its rank and its pivot seed.
type kthQuery struct{ k, seed int64 }

// runKthSorted runs the sorted-form selections qs one after another on
// every PE, all in one run on m — under RunAsync, or as a blocking body
// driving the steppers with RunSteps — and returns each selection's
// per-PE results and per-PE sends, and the run's meters.
func runKthSorted(m *comm.Machine, async bool, sorted [][]uint64, qs ...kthQuery) (res [][]uint64, sends [][]int64, st comm.Stats) {
	var n int64
	for _, sh := range sorted {
		n += int64(len(sh))
	}
	res, sends = make([][]uint64, len(qs)), make([][]int64, len(qs))
	for i := range qs {
		res[i], sends[i] = make([]uint64, m.P()), make([]int64, m.P())
	}
	mk := func(pe *comm.PE, i int) comm.Stepper {
		r := pe.Rank()
		return KthSortedStep(pe, sorted[r], n, qs[i].k, xrand.NewPE(qs[i].seed, r),
			func(v uint64) { res[i][r] = v })
	}
	m.ResetStats()
	if async {
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			var cur comm.Stepper
			var i int
			var before int64
			return comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
				for ; i < len(qs); i++ {
					if cur == nil {
						before, cur = pe.Sends(), mk(pe, i)
					}
					if h := cur.Step(pe); h != nil {
						return h
					}
					sends[i][pe.Rank()] = pe.Sends() - before
					cur = nil
				}
				return nil
			})
		})
	} else {
		m.MustRun(func(pe *comm.PE) {
			for i := range qs {
				before := pe.Sends()
				comm.RunSteps(pe, mk(pe, i))
				sends[i][pe.Rank()] = pe.Sends() - before
			}
		})
	}
	return res, sends, m.Stats()
}

// runKth is the unsorted one-shot form on the same machine, every
// selection in one blocking run.
func runKth(m *comm.Machine, shards [][]uint64, qs ...kthQuery) ([][]uint64, comm.Stats) {
	res := make([][]uint64, len(qs))
	for i := range qs {
		res[i] = make([]uint64, m.P())
	}
	m.ResetStats()
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		for i, q := range qs {
			res[i][r] = Kth(pe, shards[r], q.k, xrand.NewPE(q.seed, r))
		}
	})
	return res, m.Stats()
}

// TestKthSortedDifferential pins KthSortedStep against the sort oracle
// and against Kth on the same multiset, and its results, every
// selection's per-PE sends and all six Stats fields of the run
// bit-identical across run forms (blocking RunSteps, RunAsync, RunAsync at
// w < p) and executors (production, the simexec reference — the "matrix"
// legs, named before that package existed). A shape's
// selections share one run per rig.
func TestKthSortedDifferential(t *testing.T) {
	const n, seed = 3000, 97
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
		var qs []kthQuery
		for _, k := range []int64{1, 2, n / 2, n - 1, n} {
			qs = append(qs, kthQuery{k, seed})
		}
		for si, shape := range shardShapes {
			name := fmt.Sprintf("p=%d/%s", p, shape.name)
			shards := shape.gen(xrand.New(int64(100*p+si)), n, p)
			sorted, union := sortedShards(shards)
			unsorted, _ := runKth(rigs[0].m, shards, qs...)
			var refSends [][]int64
			var refStats comm.Stats
			for ri, rig := range rigs {
				res, sends, stats := runKthSorted(rig.m, rig.async, sorted, qs...)
				for i, q := range qs {
					want := union[q.k-1]
					for r := range res[i] {
						if res[i][r] != want || unsorted[i][r] != want {
							t.Fatalf("%s/k=%d %s rank %d: sorted form %d, Kth %d, oracle %d",
								name, q.k, rig.name, r, res[i][r], unsorted[i][r], want)
						}
					}
					if ri > 0 && !slices.Equal(sends[i], refSends[i]) {
						t.Errorf("%s/k=%d: per-PE sends diverge:\n  %s: %v\n  %s: %v",
							name, q.k, rigs[0].name, refSends[i], rig.name, sends[i])
					}
				}
				if ri == 0 {
					refSends, refStats = sends, stats
				} else if stats != refStats {
					t.Errorf("%s: meters diverge:\n  %s: %+v\n  %s: %+v",
						name, rigs[0].name, refStats, rig.name, stats)
				}
			}
		}
		for _, rig := range rigs {
			rig.m.Close()
		}
	}
}

// TestKthWindowOpsAgree: the two forms differ only in their local window
// operations, so on one multiset — ascending for the sorted form, in
// shard order for the other — a walk of splits around pivots drawn from
// the window, each followed by a narrowing to band a or c, a hit or a
// peel, must give both the same band counts, tie counts, window
// multisets and minima. The unsorted window must be the shard's elements
// inside its interval in shard order, never longer than the shard, and
// the walk must take both miss paths: compacting the window the split
// left readable, and rebuilding it from the shard after an in-place split.
func TestKthWindowOpsAgree(t *testing.T) {
	rng := xrand.New(17)
	var fromWindow, fromShard int
	for trial := 0; trial < 500; trial++ {
		w := make([]uint64, rng.Intn(60))
		for i := range w {
			w[i] = uint64(rng.Intn(12))
		}
		asc := slices.Clone(w)
		slices.Sort(asc)
		sorted := &kthLane[uint64]{sorted: true, local: asc, win: asc}
		scan := &kthLane[uint64]{local: w, win: w}
		for level := 0; len(sorted.win) > 0; level++ {
			if sorted.winMin() != scan.winMin() {
				t.Fatalf("trial %d level %d: minimum %v, scan %v", trial, level, sorted.winMin(), scan.winMin())
			}
			if want := inInterval(w, scan.bounds); !slices.Equal(scan.win, want) {
				t.Fatalf("trial %d level %d: unsorted window %v, want the shard inside %+v: %v", trial, level, scan.win, scan.bounds, want)
			}
			if got := slices.Sorted(slices.Values(scan.win)); !slices.Equal(got, sorted.win) {
				t.Fatalf("trial %d level %d: windows differ: sorted %v, scan %v", trial, level, sorted.win, got)
			}
			if len(scan.work) > len(w) {
				t.Fatalf("trial %d: work holds %d elements, the shard %d", trial, len(scan.work), len(w))
			}
			i := rng.Intn(len(sorted.win))
			j := i + rng.Intn(len(sorted.win)-i)
			for _, st := range []*kthLane[uint64]{sorted, scan} {
				st.pivLo, st.pivHi = sorted.win[i], sorted.win[j]
				st.split()
			}
			if sorted.la != scan.la || sorted.lb != scan.lb || len(scan.band) != scan.lb {
				t.Fatalf("trial %d level %d: bands around [%d, %d]: sorted (%d, %d), scan (%d, %d)",
					trial, level, sorted.pivLo, sorted.pivHi, sorted.la, sorted.lb, scan.la, scan.lb)
			}
			if got := slices.Sorted(slices.Values(scan.band)); !slices.Equal(got, sorted.band) {
				t.Fatalf("trial %d level %d: band b: sorted %v, scan %v", trial, level, sorted.band, got)
			}
			switch br := rng.Intn(4); {
			case br <= 1:
				counted(scan, &fromWindow, &fromShard)
				for _, st := range []*kthLane[uint64]{sorted, scan} {
					st.narrow(qsel.Interval[uint64]{Hi: st.pivLo, HiEnd: qsel.Open}, 0, st.la)
				}
			case br == 2:
				counted(scan, &fromWindow, &fromShard)
				for _, st := range []*kthLane[uint64]{sorted, scan} {
					st.narrow(qsel.Interval[uint64]{Lo: st.pivHi, LoEnd: qsel.Open}, st.la+st.lb, len(st.win))
				}
			case scan.lb == len(scan.win):
				sorted.peel()
				scan.peel()
				if sorted.nEqLocal != scan.nEqLocal {
					t.Fatalf("trial %d level %d: tie group of %d: sorted %d, scan %d", trial, level, sorted.pivLo, sorted.nEqLocal, scan.nEqLocal)
				}
				for _, st := range []*kthLane[uint64]{sorted, scan} {
					st.take(st.band, st.peeled())
				}
			default:
				for _, st := range []*kthLane[uint64]{sorted, scan} {
					st.take(st.band, qsel.Interval[uint64]{Lo: st.pivLo, LoEnd: qsel.Closed, Hi: st.pivHi, HiEnd: qsel.Closed})
				}
			}
		}
	}
	if fromWindow == 0 || fromShard == 0 {
		t.Errorf("misses compacted from the window %d times, rebuilt from the shard %d times; want both", fromWindow, fromShard)
	}
	if raceEnabled {
		return
	}
	sorted := &kthLane[uint64]{sorted: true, win: []uint64{1, 2, 2, 3, 5, 8}, pivLo: 2, pivHi: 5}
	shard := []uint64{8, 2, 5, 1, 3, 2}
	scan := &kthLane[uint64]{local: shard, win: shard, pivLo: 2, pivHi: 5}
	scan.split() // sizes work
	for _, st := range []*kthLane[uint64]{sorted, scan} {
		if a := testing.AllocsPerRun(100, func() { st.inWork = false; st.split(); st.winMin() }); a != 0 {
			t.Errorf("sorted=%v: window operations allocate %.0f times per level", st.sorted, a)
		}
	}
}

// counted tallies which path the next miss of st takes.
func counted(st *kthLane[uint64], fromWindow, fromShard *int) {
	if st.winIntact {
		*fromWindow++
	} else {
		*fromShard++
	}
}

// inInterval is the oracle of an unsorted window: the elements of shard
// inside iv, in shard order.
func inInterval(shard []uint64, iv qsel.Interval[uint64]) []uint64 {
	out := []uint64{}
	for _, e := range shard {
		if (iv.LoEnd == qsel.Unbounded || e > iv.Lo || e == iv.Lo && iv.LoEnd == qsel.Closed) &&
			(iv.HiEnd == qsel.Unbounded || e < iv.Hi || e == iv.Hi && iv.HiEnd == qsel.Closed) {
			out = append(out, e)
		}
	}
	return out
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
			res, _, _ := runKthSorted(m, q%2 == 0, sorted, kthQuery{k, int64(q)})
			if res[0][0] != union[k-1] {
				t.Fatalf("p=%d %s k=%d: got %d want %d", p, shape.name, k, res[0][0], union[k-1])
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
	// Each form runs its selections in one run: a run's sends are the sum
	// of its selections'.
	qs := make([]kthQuery, seeds)
	for seed := range qs {
		qs[seed] = kthQuery{n / 2, int64(seed)}
	}
	_, _, st := runKthSorted(m, true, sorted, qs...)
	sendsSorted := st.TotalSends
	_, st = runKth(m, shards, qs...)
	sendsUnsorted := st.TotalSends
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
		got, _, _ := runKthSorted(m, true, sorted, kthQuery{k, seed})
		ref, _ := runKth(m, shards, kthQuery{k, seed})
		for r := range got[0] {
			if got[0][r] != union[k-1] || ref[0][r] != union[k-1] {
				t.Fatalf("p=%d %s n=%d k=%d rank %d: sorted form %d, Kth %d, oracle %d",
					p, shape.name, n, k, r, got[0][r], ref[0][r], union[k-1])
			}
		}
	})
}
