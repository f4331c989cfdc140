package redist

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// runBalance distributes counts[i] tagged objects to PE i, balances, and
// returns the per-PE results.
func runBalance(t *testing.T, counts []int64) [][]uint64 {
	t.Helper()
	p := len(counts)
	m := comm.NewMachine(comm.DefaultConfig(p))
	out := make([][]uint64, p)
	if err := m.Run(func(pe *comm.PE) {
		local := make([]uint64, counts[pe.Rank()])
		base := uint64(pe.Rank()) << 32
		for i := range local {
			local[i] = base + uint64(i)
		}
		out[pe.Rank()] = Balance(pe, local)
	}); err != nil {
		t.Fatalf("counts %v: %v", counts, err)
	}
	return out
}

func checkBalanced(t *testing.T, counts []int64, out [][]uint64) {
	t.Helper()
	var n int64
	for _, c := range counts {
		n += c
	}
	p := int64(len(counts))
	nBar := (n + p - 1) / p
	var total int64
	seen := map[uint64]bool{}
	for r, objs := range out {
		if int64(len(objs)) > nBar {
			t.Errorf("PE %d holds %d > n̄=%d", r, len(objs), nBar)
		}
		for _, o := range objs {
			if seen[o] {
				t.Fatalf("object %d duplicated", o)
			}
			seen[o] = true
		}
		total += int64(len(objs))
	}
	if total != n {
		t.Errorf("object count changed: %d -> %d", n, total)
	}
}

func TestBalanceVariousDistributions(t *testing.T) {
	cases := [][]int64{
		{100, 0, 0, 0},          // all on one PE
		{0, 0, 0, 100},          // all on the last
		{25, 25, 25, 25},        // already balanced
		{50, 10, 30, 10},        // mixed
		{1, 2, 3, 4, 5, 6, 7},   // ramp, odd p
		{0, 0, 0},               // empty
		{7},                     // single PE
		{13, 0, 27, 0, 1, 0, 2}, // sparse
	}
	for _, counts := range cases {
		out := runBalance(t, counts)
		checkBalanced(t, counts, out)
	}
}

func TestAlreadyBalancedMovesNothing(t *testing.T) {
	const p = 8
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		local := make([]uint64, 100)
		Balance(pe, local)
	})
	// Plan building uses collectives, but no payload transfer may happen:
	// payload volume = words beyond the plan-building collectives. Easiest
	// check: rerun with only BuildPlan and compare.
	m2 := comm.NewMachine(comm.DefaultConfig(p))
	m2.MustRun(func(pe *comm.PE) {
		BuildPlan(pe, 100)
	})
	full, planOnly := m.Stats().TotalWords, m2.Stats().TotalWords
	if full != planOnly {
		t.Errorf("balanced input still moved %d payload words", full-planOnly)
	}
}

func TestSendersOnlySendReceiversOnlyReceive(t *testing.T) {
	counts := []int64{90, 10, 50, 2}
	p := len(counts)
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		plan := BuildPlan(pe, counts[pe.Rank()])
		checkAscendingPeers(t, pe.Rank(), plan)
		if len(plan.Sends) > 0 && len(plan.Recvs) > 0 {
			t.Errorf("PE %d both sends and receives", pe.Rank())
		}
		nBar := plan.NBar
		c := counts[pe.Rank()]
		if c > nBar && plan.TotalSent() != c-nBar {
			t.Errorf("PE %d sends %d, want %d", pe.Rank(), plan.TotalSent(), c-nBar)
		}
		if c <= nBar && plan.TotalSent() != 0 {
			t.Errorf("PE %d below n̄ but sends %d", pe.Rank(), plan.TotalSent())
		}
		if plan.TotalReceived() > max(nBar-c, 0) {
			t.Errorf("PE %d receives %d > deficit %d", pe.Rank(), plan.TotalReceived(), nBar-c)
		}
	})
}

func TestAdaptiveVolumeBeatsNaive(t *testing.T) {
	// One PE slightly over, the rest balanced: adaptive moves only the
	// overshoot, naive reshuffles nearly everything.
	const p = 8
	const base = 1000
	counts := make([]int64, p)
	for i := range counts {
		counts[i] = base
	}
	counts[3] = base + 3*p // slight overshoot

	run := func(naive bool) int64 {
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			local := make([]uint64, counts[pe.Rank()])
			if naive {
				NaiveExchange(pe, local, xrand.NewPE(5, pe.Rank()))
			} else {
				Balance(pe, local)
			}
		})
		return m.Stats().TotalWords
	}
	adaptive, naive := run(false), run(true)
	if adaptive >= naive/4 {
		t.Errorf("adaptive moved %d words, naive %d; expected large advantage", adaptive, naive)
	}
}

func TestNaiveExchangeBalances(t *testing.T) {
	counts := []int64{100, 0, 0, 0}
	const p = 4
	m := comm.NewMachine(comm.DefaultConfig(p))
	out := make([][]uint64, p)
	m.MustRun(func(pe *comm.PE) {
		local := make([]uint64, counts[pe.Rank()])
		for i := range local {
			local[i] = uint64(pe.Rank())<<32 + uint64(i)
		}
		out[pe.Rank()] = NaiveExchange(pe, local, xrand.NewPE(7, pe.Rank()))
	})
	checkBalanced(t, counts, out)
}

func TestBalancePreservesValues(t *testing.T) {
	counts := []int64{64, 1, 2, 1}
	p := len(counts)
	m := comm.NewMachine(comm.DefaultConfig(p))
	out := make([][]uint64, p)
	var want []uint64
	for r, c := range counts {
		for i := int64(0); i < c; i++ {
			want = append(want, uint64(r)<<32+uint64(i))
		}
	}
	m.MustRun(func(pe *comm.PE) {
		local := make([]uint64, counts[pe.Rank()])
		for i := range local {
			local[i] = uint64(pe.Rank())<<32 + uint64(i)
		}
		out[pe.Rank()] = Balance(pe, local)
	})
	var got []uint64
	for _, objs := range out {
		got = append(got, objs...)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Error("multiset of objects changed during balance")
	}
}

func TestBalanceQuick(t *testing.T) {
	check := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 10 {
			return true
		}
		counts := make([]int64, len(raw))
		for i, r := range raw {
			counts[i] = int64(r % 100)
		}
		p := len(counts)
		m := comm.NewMachine(comm.DefaultConfig(p))
		out := make([][]uint64, p)
		err := m.Run(func(pe *comm.PE) {
			local := make([]uint64, counts[pe.Rank()])
			for i := range local {
				local[i] = uint64(pe.Rank())<<32 + uint64(i)
			}
			out[pe.Rank()] = Balance(pe, local)
		})
		if err != nil {
			return false
		}
		var n, total int64
		for _, c := range counts {
			n += c
		}
		nBar := (n + int64(p) - 1) / int64(p)
		for _, objs := range out {
			if int64(len(objs)) > nBar {
				return false
			}
			total += int64(len(objs))
		}
		return total == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestApplyPanicsOnOversizedPlan(t *testing.T) {
	m := comm.NewMachine(comm.DefaultConfig(1))
	err := m.Run(func(pe *comm.PE) {
		Apply(pe, []uint64{1}, Plan{Sends: []Transfer{{Peer: 0, Count: 5}}})
	})
	if err == nil {
		t.Error("oversized plan should panic")
	}
}

func TestSkewedBigRedistribution(t *testing.T) {
	// Heavy skew with randomized sizes at p=16.
	const p = 16
	rng := xrand.New(99)
	counts := make([]int64, p)
	for i := range counts {
		if rng.Bernoulli(0.3) {
			counts[i] = int64(rng.Intn(5000))
		}
	}
	out := runBalance(t, counts)
	checkBalanced(t, counts, out)
}

// plansOf collects each PE's plan from BuildPlan.
func plansOf(t *testing.T, counts []int64) []Plan {
	t.Helper()
	p := len(counts)
	m := comm.NewMachine(comm.DefaultConfig(p))
	plans := make([]Plan, p)
	if err := m.Run(func(pe *comm.PE) {
		plans[pe.Rank()] = BuildPlan(pe, counts[pe.Rank()])
	}); err != nil {
		t.Fatalf("counts=%v: %v", counts, err)
	}
	for r, plan := range plans {
		checkAscendingPeers(t, r, plan)
	}
	return plans
}

// oraclePlans computes every PE's plan sequentially from all counts: the
// surplus runs (objects to move) and the deficit runs (open slots), each
// in rank order, merged so that the i-th moved object fills the i-th
// slot.
func oraclePlans(counts []int64) []Plan {
	p := int64(len(counts))
	var n int64
	for _, c := range counts {
		n += c
	}
	nBar := (n + p - 1) / p
	type run struct {
		rank int
		left int64
	}
	plans := make([]Plan, p)
	var surplus, deficit []run
	for r, c := range counts {
		plans[r].NBar = nBar
		if c > nBar {
			surplus = append(surplus, run{r, c - nBar})
		} else if c < nBar {
			deficit = append(deficit, run{r, nBar - c})
		}
	}
	for i, j := 0, 0; i < len(surplus) && j < len(deficit); {
		s, d := &surplus[i], &deficit[j]
		c := min(s.left, d.left)
		plans[s.rank].Sends = append(plans[s.rank].Sends, Transfer{Peer: d.rank, Count: c})
		plans[d.rank].Recvs = append(plans[d.rank].Recvs, Transfer{Peer: s.rank, Count: c})
		s.left -= c
		d.left -= c
		if s.left == 0 {
			i++
		}
		if d.left == 0 {
			j++
		}
	}
	return plans
}

// checkAscendingPeers: a plan lists its transfers in ascending peer
// order, at most one per peer.
func checkAscendingPeers(t *testing.T, rank int, plan Plan) {
	t.Helper()
	for _, ts := range [][]Transfer{plan.Sends, plan.Recvs} {
		for i := 1; i < len(ts); i++ {
			if ts[i-1].Peer >= ts[i].Peer {
				t.Errorf("PE %d: transfers %+v are not in ascending peer order", rank, ts)
			}
		}
	}
}

func plansEqual(a, b []Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].NBar != b[i].NBar ||
			!slices.Equal(a[i].Sends, b[i].Sends) ||
			!slices.Equal(a[i].Recvs, b[i].Recvs) {
			return false
		}
	}
	return true
}

// TestBuildPlanMatchesSequentialOracle pins BuildPlan's exact plans to
// the sequential merge of the surplus and deficit runs.
func TestBuildPlanMatchesSequentialOracle(t *testing.T) {
	cases := [][]int64{
		{100, 0, 0, 0},
		{0, 0, 0, 100},
		{25, 25, 25, 25},
		{50, 10, 30, 10},
		{1, 2, 3, 4, 5, 6, 7},
		{0, 0, 0},
		{7},
		{13, 0, 27, 0, 1, 0, 2},
		{0, 64, 0, 64, 0, 64},
		{1000, 1, 1, 1, 1, 1, 1, 1},
	}
	for _, counts := range cases {
		if got, want := plansOf(t, counts), oraclePlans(counts); !plansEqual(got, want) {
			t.Errorf("counts %v:\n BuildPlan %+v\n oracle    %+v", counts, got, want)
		}
	}
}

func TestBuildPlanQuickAgainstOracle(t *testing.T) {
	check := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		counts := make([]int64, len(raw))
		for i, r := range raw {
			counts[i] = int64(r % 200)
		}
		return plansEqual(plansOf(t, counts), oraclePlans(counts))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestBuildPlanRepeatedRunsBitIdentical: the plan construction has no
// map iteration or RNG anywhere, so repeated runs must be bit-identical
// in both plans and meters.
func TestBuildPlanRepeatedRunsBitIdentical(t *testing.T) {
	const p = 5
	counts := []int64{190, 3, 77, 0, 41}
	run := func() ([]Plan, comm.Stats) {
		plans := make([]Plan, p)
		mach := comm.NewMachine(comm.DefaultConfig(p))
		mach.MustRun(func(pe *comm.PE) {
			plans[pe.Rank()] = BuildPlan(pe, counts[pe.Rank()])
		})
		return plans, mach.Stats()
	}
	refPlans, refStats := run()
	for rep := 0; rep < 3; rep++ {
		plans, stats := run()
		if !reflect.DeepEqual(plans, refPlans) {
			t.Fatalf("rep %d: plans diverged", rep)
		}
		if stats != refStats {
			t.Fatalf("rep %d: meters diverged", rep)
		}
	}
}
