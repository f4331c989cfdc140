package serve

import (
	"runtime"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// TestServeResidentIndex pins what NewServer's sorted copy and rank
// table cost and what they must not touch: the caller's shards are
// byte-identical after a server's whole life (bench/ reuses them across
// set-ups), and a server that has run 100 fat Kth queries over all eight
// context leases and then 20 DeleteMin(32) holds one more copy of the
// shards, its rank table (4 bytes per row, n/r rows on every PE) and a
// constant — no Θ(n/p) scratch per (PE, context) survives on the serve
// path, and the priority queue DeleteMin pops from is the sorted copy
// itself, not a second structure over the same keys.
func TestServeResidentIndex(t *testing.T) {
	const p, perPE, queries, pops, batch = 4, 1 << 16, 100, 20, 32
	rng := xrand.New(21)
	shards := make([][]uint64, p)
	var union []uint64
	for r := range shards {
		shards[r] = make([]uint64, perPE)
		for i := range shards[r] {
			shards[r][i] = rng.Uint64()
		}
		union = append(union, shards[r]...)
	}
	slices.Sort(union)
	saved := make([][]uint64, p)
	for r := range shards {
		saved[r] = slices.Clone(shards[r])
	}
	tickets := make([]*Ticket[uint64], 0, queries)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()

	s, err := NewServer(m, shards, Config{Seed: 3, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(p * perPE)
	for i := 0; i < queries; i++ {
		tk, err := s.Kth(1 + int64(i)*(n-1)/(queries-1))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		k := 1 + int64(i)*(n-1)/(queries-1)
		if v, err := tk.Wait(); err != nil || v != union[k-1] {
			t.Fatalf("Kth(%d) = %d, %v; want %d", k, v, err, union[k-1])
		}
	}
	clear(tickets)
	for j := 1; j <= pops; j++ {
		tk, err := s.DeleteMin(batch)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tk.Wait(); err != nil || v != union[j*batch-1] || tk.BatchLen() != batch {
			t.Fatalf("DeleteMin #%d = %d (batch %d), %v; want %d (batch %d)", j, v, tk.BatchLen(), err, union[j*batch-1], batch)
		}
	}
	held := heap() - before
	runtime.KeepAlive(union) // allocated before the first reading: keep it in the second
	const shardBytes = p * perPE * 8
	if limit := int64(shardBytes*5/4 + 1<<20); held > limit {
		t.Errorf("server holds %d bytes after %d Kth queries at MaxInflight 8 and %d DeleteMin(%d); want at most %d (1.25 × %d shard bytes + 1 MiB)",
			held, queries, pops, batch, limit, shardBytes)
	}
	var tableBytes int
	for _, tb := range s.tables {
		tableBytes += 4 * len(tb.cut)
	}
	t.Logf("resident after %d Kth and %d DeleteMin queries: %d bytes for %d shard bytes (%.2f×), %d of them the rank table",
		queries, pops, held, shardBytes, float64(held)/shardBytes, tableBytes)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for r := range shards {
		if !slices.Equal(shards[r], saved[r]) {
			t.Fatalf("NewServer or a query wrote the caller's shard %d", r)
		}
	}
}

// TestServeKthAllocsIndependentOfP: a served Kth allocates its ticket,
// its query record and its share of a doorbell, and nothing per PE — the
// lanes, their streams and the result delivery live in every mux's
// pooled selection engine. On a warm server, one query at a time, the
// count per query is the same at p = 16 and p = 64 and at most 8 (a
// slot, a stream and a result closure per PE and query read 3p + 5).
func TestServeKthAllocsIndependentOfP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const perPE = 256
	allocs := map[int]float64{}
	for _, p := range []int{16, 64} {
		shards, sorted := mkUniformShards(p, perPE, 29)
		n := int64(len(sorted))
		m := comm.NewMachine(comm.DefaultConfig(p))
		s, err := NewServer(m, shards, Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		kth := func(k int64) {
			tk, err := s.Kth(k)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := tk.Wait(); err != nil || got != sorted[k-1] {
				t.Fatalf("p=%d: Kth(%d) = %d, %v; want %d", p, k, got, err, sorted[k-1])
			}
		}
		i := int64(0)
		query := func() {
			i++
			kth(1 + i*7919%n)
		}
		for range 50 {
			query()
		}
		// The first rank of a window takes the k = 1 min-reduction, not
		// the sweeps; the first such query on a server allocates its
		// per-PE state, once. The measured queries take it too at p = 64
		// (i = 128).
		kth(s.tables[0].r + 1)
		allocs[p] = testing.AllocsPerRun(200, query)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
	t.Logf("allocations per served Kth: %v", allocs)
	if allocs[16] != allocs[64] || allocs[64] > 8 {
		t.Errorf("allocations per served Kth: %.2f at p = 16, %.2f at p = 64; want equal and at most 8", allocs[16], allocs[64])
	}
}

// mkUniformShards is p shards of perPE random keys and their sorted
// union.
func mkUniformShards(p, perPE int, seed int64) (shards [][]uint64, sorted []uint64) {
	rng := xrand.New(seed)
	shards = make([][]uint64, p)
	for r := range shards {
		shards[r] = make([]uint64, perPE)
		for j := range shards[r] {
			shards[r][j] = rng.Uint64()
		}
		sorted = append(sorted, shards[r]...)
	}
	slices.Sort(sorted)
	return shards, sorted
}
