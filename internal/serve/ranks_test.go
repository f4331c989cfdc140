package serve

import (
	"slices"
	"testing"

	"commtopk/internal/comm"
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
		// An empty shard, a shard shorter than the stride and two long ones.
		{"unequal", gen([]int{0, 10, 700, 3000}, random)},
		{"empty-and-ties", gen([]int{0, 2500, 0, 400}, func(int, int) uint64 { return rng.Uint64() % 5 })},
		// Every shard shorter than the stride: the table is empty.
		{"all-short", gen([]int{63, 1, 0, 40}, random)},
	}
}

// buildTables builds the rank table of sorted shards through a blocking
// run on m.
func buildTables(t *testing.T, m *comm.Machine, sorted [][]uint64) []rankTable {
	t.Helper()
	tables := make([]rankTable, len(sorted))
	if err := m.Run(func(pe *comm.PE) {
		tables[pe.Rank()] = buildRankTable(pe, sorted[pe.Rank()])
	}); err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestRankTable checks the table built through a production machine and
// the simexec reference on random, tie-heavy, unequal, empty and short
// shards: every PE holds the same strictly ascending ranks, one row per
// stride of every shard; PE positions sum to each row's rank and cut the
// key set in order; and for 1, n and every k at and beside a row rank,
// the window holds at most 16p² keys, its per-PE parts add up to its
// size, and k's rank inside it is in range.
func TestRankTable(t *testing.T) {
	for _, tc := range rankTableCases() {
		p := len(tc.shards)
		sorted := sortedCopies(tc.shards)
		var n int64
		rows := 0
		for _, sh := range sorted {
			n += int64(len(sh))
			rows += len(sh) / (rankStride * p)
		}
		for _, rig := range []struct {
			name string
			m    *comm.Machine
		}{
			{"mailbox", comm.NewMachine(comm.DefaultConfig(p))},
			{"matrix", simexec.Reference(p)},
		} {
			tables := buildTables(t, rig.m, sorted)
			rig.m.Close()
			ranks := tables[0].ranks
			if len(ranks) != rows {
				t.Errorf("%s/%s: %d rows, want %d", tc.name, rig.name, len(ranks), rows)
			}
			for j, r := range ranks {
				if j > 0 && r <= ranks[j-1] {
					t.Fatalf("%s/%s: ranks not strictly ascending at row %d: %v", tc.name, rig.name, j, ranks)
				}
				var sum int64
				maxBelow, minAbove, below := uint64(0), ^uint64(0), false
				for i, tb := range tables {
					if !slices.Equal(tb.ranks, ranks) || len(tb.pos) != len(ranks) {
						t.Fatalf("%s/%s: PE %d's ranks differ from PE 0's", tc.name, rig.name, i)
					}
					c := int(tb.pos[j])
					sum += int64(c)
					if c > 0 {
						maxBelow, below = max(maxBelow, sorted[i][c-1]), true
					}
					if c < len(sorted[i]) {
						minAbove = min(minAbove, sorted[i][c])
					}
				}
				if sum != r {
					t.Fatalf("%s/%s: row %d: positions sum to %d, rank is %d", tc.name, rig.name, j, sum, r)
				}
				if below && maxBelow > minAbove {
					t.Fatalf("%s/%s: row %d does not cut in order: %d at or before it, %d after it", tc.name, rig.name, j, maxBelow, minAbove)
				}
			}
			for _, k := range rankProbes(ranks, n) {
				var size int64
				var total, local int64
				for i, tb := range tables {
					lo, hi, base, tot := tb.window(k, n, len(sorted[i]))
					if i > 0 && tot != total {
						t.Fatalf("%s/%s: Kth(%d): PEs disagree on the window size", tc.name, rig.name, k)
					}
					total, local = tot, k-base
					size += int64(hi - lo)
				}
				if size != total || local < 1 || local > total {
					t.Fatalf("%s/%s: Kth(%d): window of %d keys, parts sum to %d, local rank %d", tc.name, rig.name, k, total, size, local)
				}
				if bound := int64(rankStride * p * p); total > bound {
					t.Errorf("%s/%s: Kth(%d): window of %d keys, want at most %d", tc.name, rig.name, k, total, bound)
				}
			}
		}
	}
}

// rankProbes returns 1, n and every rank at and beside a row rank, in
// [1, n].
func rankProbes(ranks []int64, n int64) []int64 {
	ks := []int64{1, n}
	for _, r := range ranks {
		for _, k := range []int64{r - 1, r, r + 1} {
			if k >= 1 && k <= n {
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// TestRankTableServedAnswers serves Kth at and beside every row rank of
// each case, at full inflight depth, and checks every answer against the
// sort oracle.
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
		ks := rankProbes(s.tables[0].ranks, n)
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

// TestRankTableCutsSends guards what the table buys: at p = 16 and
// n/p = 2^14, a served Kth at evenly spaced ranks sends on average at most
// 5.5 messages per PE, the measurement plus about a fifth. Measured: 4.55
// with the table and 11.90 without it (every query selecting over all n
// keys); under the sorted form's former level rule (target 4(√p + 8),
// Δ = m^0.6), 7.71 and 22.01.
func TestRankTableCutsSends(t *testing.T) {
	const p, perPE, queries, bound = 16, 1 << 14, 64, 5.5
	rng := xrand.New(17)
	shards := make([][]uint64, p)
	for i := range shards {
		shards[i] = make([]uint64, perPE)
		for j := range shards[i] {
			shards[i][j] = rng.Uint64()
		}
	}
	n := int64(p * perPE)
	ranks := make([]int64, queries)
	for i := range ranks {
		ranks[i] = 1 + int64(i)*(n-1)/(queries-1)
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	var sends int64
	for _, o := range runServed(t, m, shards, ranks, Config{Seed: 5}, true) {
		sends += o.sends
	}
	mean := float64(sends) / float64(p*queries)
	t.Logf("%.2f sends per PE per query", mean)
	if mean > bound {
		t.Errorf("served Kth sends %.2f messages per PE per query, want at most %.1f", mean, bound)
	}
}

// TestShortShardsBuildNoTable: when every shard is shorter than the
// stride the table would be empty, so NewServer starts no run for it —
// a server closed before any query has sent nothing — and Kth answers
// every rank from the whole key set.
func TestShortShardsBuildNoTable(t *testing.T) {
	rng := xrand.New(23)
	const p = 4
	shards := make([][]uint64, p)
	var union []uint64
	for i, l := range []int{rankStride*p - 1, 1, 0, 40} {
		shards[i] = make([]uint64, l)
		for j := range shards[i] {
			shards[i][j] = rng.Uint64() % 50 // ties across PEs
		}
		union = append(union, shards[i]...)
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
		t.Errorf("an idle short-shard server sent %d messages: the table was built", st.TotalSends)
	}
	s, err := NewServer(m, shards, Config{QueueDepth: 1024, MaxInflight: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range s.tables {
		if len(tb.ranks) != 0 || len(tb.pos) != 0 {
			t.Errorf("PE %d holds a table of %d rows", i, len(tb.ranks))
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
