package serve

import (
	"cmp"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/sel"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// rankTableCase is one key layout for the rank table tests: shards[i] is
// PE i's shard (unsorted).
type rankTableCase struct {
	name   string
	shards [][]uint64
}

func rankTableCases() []rankTableCase {
	rng := xrand.New(5)
	gen := func(lens []int, key func(pe, j int) uint64) [][]uint64 {
		shards := make([][]uint64, len(lens))
		for i, l := range lens {
			shards[i] = make([]uint64, l)
			for j := range shards[i] {
				shards[i][j] = key(i, j)
			}
		}
		return shards
	}
	random := func(int, int) uint64 { return rng.Uint64() }
	return []rankTableCase{
		{"random", gen([]int{2000, 2000, 2000, 2000}, random)},
		{"random-p16", gen(slices.Repeat([]int{1500}, 16), random)},
		// Most keys share one value: it spans many rows and every PE
		// contributes it.
		{"one-giant-tie", gen([]int{1800, 2100, 1300, 1900}, func(int, int) uint64 {
			if rng.Uint64()%10 < 8 {
				return 7
			}
			return rng.Uint64() % 16
		})},
		{"few-values", gen([]int{1000, 1500, 700, 1200}, func(int, int) uint64 { return rng.Uint64() % 3 })},
		{"all-equal", gen([]int{600, 300, 900, 64}, func(int, int) uint64 { return 42 })},
		// An empty shard, a shard shorter than p and two long ones.
		{"unequal", gen([]int{0, 3, 700, 3000}, random)},
		{"empty-and-ties", gen([]int{0, 2500, 0, 400}, func(int, int) uint64 { return rng.Uint64() % 5 })},
		// n = 4r at p = 4 (r = 80): the last window is full.
		{"whole-rows", gen([]int{100, 60, 0, 160}, random)},
		// n = r + 24: one row, then a short window.
		{"one-row", gen([]int{63, 1, 0, 40}, random)},
		{"one-pe", gen([]int{500}, random)},
		{"p3-ties", gen([]int{300, 0, 450}, func(int, int) uint64 { return rng.Uint64() % 40 })},
	}
}

// buildTables builds the rank table of sorted shards through a blocking
// run on m.
func buildTables(t *testing.T, m *comm.Machine, sorted [][]uint64, r, n int64) []rankTable {
	t.Helper()
	tables := make([]rankTable, len(sorted))
	if err := m.Run(func(pe *comm.PE) {
		tables[pe.Rank()] = buildRankTable(pe, sorted[pe.Rank()], r, n)
	}); err != nil {
		t.Fatal(err)
	}
	return tables
}

// keyed is a key of the key set and the PE or run it comes from.
type keyed struct {
	key uint64
	src int
}

// keyOrder is the key set of sorted shards in the table's order (key, PE
// rank, shard position): the sort oracle.
func keyOrder(sorted [][]uint64) []keyed {
	var all []keyed
	for i, sh := range sorted {
		for _, v := range sh {
			all = append(all, keyed{v, i})
		}
	}
	// A stable sort by key keeps ties in (PE, position) order.
	slices.SortStableFunc(all, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	return all
}

// TestRankTable checks the table built through a production machine and
// the simexec reference on random, tie-heavy, all-equal, unequal, empty
// and short shards, with a short last window and with a full one: every
// PE's cuts equal the sort oracle's count of its keys among the first
// j·r keys of the key set for every multiple j·r below n, and for 1, n
// and every rank at and beside a multiple of r, the window's parts hold
// min(r, n − (j−1)r) keys among which the key of rank k has rank kRem.
func TestRankTable(t *testing.T) {
	for _, tc := range rankTableCases() {
		p := len(tc.shards)
		r := int64(sel.OneSweepWindow(p))
		sorted := sortedCopies(tc.shards)
		order := keyOrder(sorted)
		n := int64(len(order))
		if n <= r {
			t.Fatalf("%s: %d keys fit one window of %d: no table to check", tc.name, n, r)
		}
		// want[i][j]: PE i's keys among the first j·r, then its shard's
		// length.
		want := make([][]int32, p)
		counts := make([]int32, p)
		for g := int64(0); g <= n; g++ {
			if g > 0 {
				counts[order[g-1].src]++
			}
			if g%r == 0 && g < n || g == n {
				for i := range want {
					want[i] = append(want[i], counts[i])
				}
			}
		}
		for _, rig := range []struct {
			name string
			m    *comm.Machine
		}{
			{"mailbox", comm.NewMachine(comm.DefaultConfig(p))},
			{"matrix", simexec.Reference(p)},
		} {
			tables := buildTables(t, rig.m, sorted, r, n)
			rig.m.Close()
			for i, tb := range tables {
				if tb.r != r || tb.n != n || !slices.Equal(tb.cut, want[i]) {
					t.Fatalf("%s/%s: PE %d: r %d, n %d, cuts %v; want %d, %d, %v", tc.name, rig.name, i, tb.r, tb.n, tb.cut, r, n, want[i])
				}
			}
			for _, k := range rankProbes(r, n) {
				var window []uint64
				var total, kRem int64
				for i, tb := range tables {
					lo, hi, tot, kr := tb.window(k)
					if i > 0 && (tot != total || kr != kRem) {
						t.Fatalf("%s/%s: Kth(%d): PEs disagree on the window", tc.name, rig.name, k)
					}
					total, kRem = tot, kr
					window = append(window, sorted[i][lo:hi]...)
				}
				slices.Sort(window)
				if want := min(r, n-(k-1)/r*r); total != want || int64(len(window)) != total {
					t.Fatalf("%s/%s: Kth(%d): window of %d keys, its parts hold %d; want %d", tc.name, rig.name, k, total, len(window), want)
				}
				if kRem < 1 || kRem > total || window[kRem-1] != order[k-1].key {
					t.Fatalf("%s/%s: Kth(%d): rank %d in the window, want the key %d", tc.name, rig.name, k, kRem, order[k-1].key)
				}
			}
		}
	}
}

// rankProbes returns 1, n and every rank at and beside a multiple of r,
// in [1, n].
func rankProbes(r, n int64) []int64 {
	ks := []int64{1, n}
	for g := r; g < n; g += r {
		for _, k := range []int64{g - 1, g, g + 1} {
			if k >= 1 && k <= n {
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// TestRankTableServedAnswers serves Kth at and beside every multiple of
// the row size in each case, at full inflight depth, and checks every
// answer against the sort oracle.
func TestRankTableServedAnswers(t *testing.T) {
	for _, tc := range rankTableCases() {
		p := len(tc.shards)
		var union []uint64
		for _, sh := range tc.shards {
			union = append(union, sh...)
		}
		slices.Sort(union)
		n := int64(len(union))
		m := comm.NewMachine(comm.DefaultConfig(p))
		s, err := NewServer(m, tc.shards, Config{QueueDepth: 4096, MaxInflight: 6, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		ks := rankProbes(s.tables[0].r, n)
		tickets := make([]*Ticket[uint64], len(ks))
		for i, k := range ks {
			if tickets[i], err = s.Kth(k); err != nil {
				t.Fatalf("%s: Kth(%d): %v", tc.name, k, err)
			}
		}
		for i, tk := range tickets {
			if v, err := tk.Wait(); err != nil || v != union[ks[i]-1] {
				t.Errorf("%s: Kth(%d) = %d, %v; want %d", tc.name, ks[i], v, err, union[ks[i]-1])
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
}

// TestRankTableCutsSends guards what the table buys: a served Kth at
// evenly spaced ranks is one sweep, 2(p−1)/p messages per PE, but for
// the ranks that are the first of their window, whose min-reduction sends
// ⌈log₂ p⌉. Bound 2.1 on average at fat's shape (p = 16, n/p = 2^14;
// measured 1.94; 4.55 under the former table of every (16p)-th key, 11.90
// with no table) and at thin's (p = 64, n/p = 256; measured 2.03; with
// no table, the serving benchmark's thin workload reads 8.20).
func TestRankTableCutsSends(t *testing.T) {
	for _, shape := range []struct{ p, perPE int }{{16, 1 << 14}, {64, 256}} {
		const queries, bound = 64, 2.1
		p := shape.p
		shards, _ := mkUniformShards(p, shape.perPE, 17)
		n := int64(p * shape.perPE)
		ranks := make([]int64, queries)
		for i := range ranks {
			ranks[i] = 1 + int64(i)*(n-1)/(queries-1)
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		var sends int64
		for _, o := range runServed(t, m, shards, ranks, Config{Seed: 5}, true) {
			sends += o.sends
		}
		m.Close()
		mean := float64(sends) / float64(p*queries)
		t.Logf("p = %d, n/p = %d: %.3f sends per PE per query", p, shape.perPE, mean)
		if mean > bound {
			t.Errorf("p = %d, n/p = %d: served Kth sends %.3f messages per PE per query, want at most %.1f", p, shape.perPE, mean, bound)
		}
	}
}

// TestKthInAWholeWindowIsOneSweep: a served Kth of a rank inside a full
// window of r keys, not its first, sends exactly one up-sweep and one
// down-sweep on the machine, 2(p−1) messages.
func TestKthInAWholeWindowIsOneSweep(t *testing.T) {
	for _, p := range []int{3, 16, 64} {
		shards, sorted := mkUniformShards(p, 256, 31)
		r := int64(sel.OneSweepWindow(p))
		m := comm.NewMachine(comm.DefaultConfig(p))
		s, err := NewServer(m, shards, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		built := m.Stats().TotalSends // the table's build; the server is idle
		k := 2*r + 5
		tk, err := s.Kth(k)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tk.Wait(); err != nil || v != sorted[k-1] {
			t.Errorf("p = %d: Kth(%d) = %d, %v; want %d", p, k, v, err, sorted[k-1])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if sent := m.Stats().TotalSends - built; sent != int64(2*(p-1)) {
			t.Errorf("p = %d: Kth(%d) sent %d messages, want %d", p, k, sent, 2*(p-1))
		}
		m.Close()
	}
}

// TestKeySetOfOneWindowBuildsNoTable: when the key set holds at most r
// keys it is one window, so NewServer starts no build run — a server
// closed before any query has sent nothing — and Kth answers every rank
// from the whole key set.
func TestKeySetOfOneWindowBuildsNoTable(t *testing.T) {
	rng := xrand.New(23)
	const p = 4
	shards := make([][]uint64, p)
	var union []uint64
	for i, l := range []int{50, 1, 0, 29} { // n = r = 80
		shards[i] = make([]uint64, l)
		for j := range shards[i] {
			shards[i][j] = rng.Uint64() % 50 // ties across PEs
		}
		union = append(union, shards[i]...)
	}
	if r := sel.OneSweepWindow(p); len(union) != r {
		t.Fatalf("%d keys, want r = %d", len(union), r)
	}
	slices.Sort(union)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	m.ResetStats()
	idle, err := NewServer(m, shards, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.TotalSends != 0 {
		t.Errorf("an idle one-window server sent %d messages: the table was built", st.TotalSends)
	}
	s, err := NewServer(m, shards, Config{QueueDepth: 1024, MaxInflight: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range s.tables {
		if want := []int32{0, int32(len(shards[i]))}; !slices.Equal(tb.cut, want) {
			t.Errorf("PE %d holds the cuts %v, want only its shard's ends %v", i, tb.cut, want)
		}
	}
	tickets := make([]*Ticket[uint64], len(union))
	for i := range union {
		if tickets[i], err = s.Kth(int64(i + 1)); err != nil {
			t.Fatalf("Kth(%d): %v", i+1, err)
		}
	}
	for i, tk := range tickets {
		if v, err := tk.Wait(); err != nil || v != union[i] {
			t.Errorf("Kth(%d) = %d, %v; want %d", i+1, v, err, union[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCutRuns checks the owner's merge against a sort of the runs' keys
// by (key, run): at every recorded position, each run's count of keys
// among the first that many, plus the run's offset. The runs hold ties
// inside and across them, and some are empty.
func TestCutRuns(t *testing.T) {
	rng := xrand.New(11)
	for _, lens := range [][]int{{5}, {0, 0, 3}, {7, 0, 9, 1, 4}, {20, 20, 20}, {1, 0, 0, 0, 0, 0, 0, 0, 2}} {
		runs := make([][]uint64, len(lens))
		for i, l := range lens {
			runs[i] = make([]uint64, l)
			for j := range runs[i] {
				runs[i][j] = rng.Uint64() % 6
			}
			slices.Sort(runs[i])
		}
		order := keyOrder(runs)
		for _, rf := range [][2]int64{{1, 1}, {2, 3}, {int64(len(order)), 1}} {
			first, r := rf[0], rf[1]
			rows := int((int64(len(order))-first)/r + 1)
			before := make([]int, len(runs))
			for s := range before {
				before[s] = 100 * s
			}
			cols := cutRuns(runs, before, first, r, rows)
			for j := range rows {
				g := first + int64(j)*r
				for s := range runs {
					want := int32(before[s])
					for _, row := range order[:g] {
						if row.src == s {
							want++
						}
					}
					if got := cols[s*rows+j]; got != want {
						t.Fatalf("runs %v: run %d at merged position %d: %d keys, want %d", lens, s, g, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkRankTableBuild times one build of the rank table, a blocking
// run on a warm machine over sorted shards of random keys, at the serving
// benchmark's fat shape (p = 16, n/p = 2^16) and thin one (p = 64,
// n/p = 2^8):
//
//	go test -run '^$' -bench RankTableBuild -benchmem ./internal/serve/
func BenchmarkRankTableBuild(b *testing.B) {
	for _, sh := range []struct {
		name     string
		p, perPE int
	}{{"p=16,n_p=2^16", 16, 1 << 16}, {"p=64,n_p=2^8", 64, 1 << 8}} {
		b.Run(sh.name, func(b *testing.B) {
			shards, _ := mkUniformShards(sh.p, sh.perPE, 13)
			sorted := sortedCopies(shards)
			r, n := int64(sel.OneSweepWindow(sh.p)), int64(sh.p*sh.perPE)
			m := comm.NewMachine(comm.DefaultConfig(sh.p))
			defer m.Close()
			body := func(pe *comm.PE) { buildRankTable(pe, sorted[pe.Rank()], r, n) }
			if err := m.Run(body); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Run(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
