package serve

import (
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// queryOutcome is one query's observable: its answer, its realized
// batch size (DeleteMin only), and its attributed meter (words +
// startups summed over PEs).
type queryOutcome struct {
	res   uint64
	n     int64
	words int64
	sends int64
}

// serveRig is one kind of machine the serving differentials run on.
type serveRig struct {
	name string
	mk   func() *comm.Machine
}

// serveRigs are a production machine squeezed to w < p and the reference
// executor of internal/simexec ("matrix": the leg's name is older than
// that package).
func serveRigs(p int) []serveRig {
	return []serveRig{
		{"mailbox-wltp", func() *comm.Machine {
			c := comm.DefaultConfig(p)
			c.Workers = 3
			return comm.NewMachine(c)
		}},
		{"matrix", func() *comm.Machine { return simexec.Reference(p) }},
	}
}

// runServed executes the fixed query set against a fresh server on m,
// either strictly sequentially (submit → wait → submit) or fully
// concurrently (submit all, wait all), and returns per-query outcomes in
// submission order.
func runServed(t *testing.T, m *comm.Machine, shards [][]uint64, ranks []int64, cfg Config, concurrent bool) []queryOutcome {
	t.Helper()
	s, err := NewServer(m, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]queryOutcome, len(ranks))
	collect := func(i int, tk *Ticket[uint64]) {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		w, sd := tk.Meters()
		out[i] = queryOutcome{res: res, n: tk.BatchLen(), words: w, sends: sd}
	}
	if concurrent {
		tickets := make([]*Ticket[uint64], len(ranks))
		for i, k := range ranks {
			tk, err := s.Kth(k)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tickets[i] = tk
		}
		for i, tk := range tickets {
			collect(i, tk)
		}
	} else {
		for i, k := range ranks {
			tk, err := s.Kth(k)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			collect(i, tk)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeConcurrentMatchesSequential is the serving layer's
// differential: N tagged queries interleaved at full inflight depth must
// be bit-identical — answers AND per-query attributed meters — to the
// same queries run strictly one at a time, on both executors, with the
// production scheduler squeezed to w < p (the regime where suspended
// tenants genuinely share workers). Per-query RNG streams are derived
// from the submission index, so the pivot walks are interleaving-
// independent by construction; this test pins that nothing else (tag
// allocation, pooled buffers, context demux, meter attribution) leaks between
// tenants either.
// mixedQuery is one entry of a mixed-kind workload: pq selects the
// query type submitted with batch/rank size k.
type mixedQuery struct {
	pq bool
	k  int64
}

// runServedMixed executes a mixed Kth/DeleteMin workload against a
// fresh server on m, sequentially or fully concurrently, returning
// per-query outcomes in submission order.
func runServedMixed(t *testing.T, m *comm.Machine, shards [][]uint64, queries []mixedQuery, cfg Config, concurrent bool) []queryOutcome {
	t.Helper()
	s, err := NewServer(m, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(q mixedQuery) *Ticket[uint64] {
		var tk *Ticket[uint64]
		var err error
		if q.pq {
			tk, err = s.DeleteMin(q.k)
		} else {
			tk, err = s.Kth(q.k)
		}
		if err != nil {
			t.Fatalf("submit %+v: %v", q, err)
		}
		return tk
	}
	out := make([]queryOutcome, len(queries))
	collect := func(i int, tk *Ticket[uint64]) {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		w, sd := tk.Meters()
		out[i] = queryOutcome{res: res, n: tk.BatchLen(), words: w, sends: sd}
	}
	if concurrent {
		tickets := make([]*Ticket[uint64], len(queries))
		for i, q := range queries {
			tickets[i] = submit(q)
		}
		for i, tk := range tickets {
			collect(i, tk)
		}
	} else {
		for i, q := range queries {
			collect(i, submit(q))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// mkUniqueShards builds p shards of globally unique keys (the DeleteMin
// query kind's precondition) plus the sorted union oracle.
func mkUniqueShards(p int, seed int64) (shards [][]uint64, sorted []uint64) {
	rng := xrand.New(seed)
	shards = make([][]uint64, p)
	for r := range shards {
		n := 40 + r*13%30
		sh := make([]uint64, n)
		for j := range sh {
			// High bits random, low bits a global sequence number: unique
			// by construction, order dominated by the random bits.
			sh[j] = rng.Uint64()<<20 | uint64(len(sorted))
			sorted = append(sorted, sh[j])
		}
		shards[r] = sh
	}
	slices.Sort(sorted)
	return shards, sorted
}

// TestServeMixedKindsConcurrentMatchesSequential extends the serving
// differential to the second query kind: a workload mixing Kth
// selections with resident-queue DeleteMin batches must produce
// bit-identical per-query answers, batch sizes, AND attributed meters
// whether run strictly one at a time or at full inflight depth, on both
// executors, with the production scheduler squeezed to w < p. DeleteMin
// queries mutate shared state, so this additionally pins the mux's FIFO
// serialization: the resident queue's mutation (and RNG-stream) order
// must equal dispatch order on every PE regardless of interleaving.
func TestServeMixedKindsConcurrentMatchesSequential(t *testing.T) {
	const p = 8
	shards, sorted := mkUniqueShards(p, 23)
	n := int64(len(sorted))
	queries := []mixedQuery{
		{false, 1}, {true, 5}, {false, n / 2}, {true, 1},
		{true, 37}, {false, n}, {false, 7}, {true, 64},
		{true, 11}, {false, n / 3}, {true, 3}, {false, 2},
	}
	// Oracle: Kth answers come from the immutable union; DeleteMin pops
	// the globally smallest remaining keys in submission order.
	remaining := append([]uint64(nil), sorted...)
	want := make([]queryOutcome, len(queries))
	for i, q := range queries {
		if !q.pq {
			want[i].res = sorted[q.k-1]
			continue
		}
		take := q.k
		if take > int64(len(remaining)) {
			take = int64(len(remaining))
		}
		want[i].n = take
		if take == q.k && take > 0 {
			want[i].res = remaining[take-1] // exact path: threshold = batch max
		}
		remaining = remaining[take:]
	}
	for _, tc := range serveRigs(p) {
		t.Run(tc.name, func(t *testing.T) {
			seqM := tc.mk()
			defer seqM.Close()
			seq := runServedMixed(t, seqM, shards, queries, Config{MaxInflight: 1, BatchMax: 1, Seed: 31}, false)
			conM := tc.mk()
			defer conM.Close()
			con := runServedMixed(t, conM, shards, queries, Config{MaxInflight: 6, BatchMax: 4, Seed: 31}, true)
			for i, q := range queries {
				if seq[i].res != want[i].res || seq[i].n != want[i].n {
					t.Errorf("query %d (%+v): sequential got (res %d, n %d) want (res %d, n %d)",
						i, q, seq[i].res, seq[i].n, want[i].res, want[i].n)
				}
				if seq[i] != con[i] {
					t.Errorf("query %d (%+v): outcomes diverge\n  sequential: %+v\n  concurrent: %+v",
						i, q, seq[i], con[i])
				}
			}
		})
	}
}

func TestServeConcurrentMatchesSequential(t *testing.T) {
	const p = 8
	shards, sorted := mkShards(p, 17)
	ranks := []int64{1, 3, 500, 999, 42, int64(len(sorted)), 7, 7, 250, 250, 123, 1000}
	for _, tc := range serveRigs(p) {
		t.Run(tc.name, func(t *testing.T) {
			seqM := tc.mk()
			defer seqM.Close()
			seq := runServed(t, seqM, shards, ranks, Config{MaxInflight: 1, BatchMax: 1, Seed: 29}, false)
			conM := tc.mk()
			defer conM.Close()
			con := runServed(t, conM, shards, ranks, Config{MaxInflight: 6, BatchMax: 4, Seed: 29}, true)
			for i := range ranks {
				if want := sorted[ranks[i]-1]; seq[i].res != want {
					t.Errorf("query %d (rank %d): sequential got %d want %d", i, ranks[i], seq[i].res, want)
				}
				if seq[i] != con[i] {
					t.Errorf("query %d (rank %d): outcomes diverge\n  sequential: %+v\n  concurrent: %+v",
						i, ranks[i], seq[i], con[i])
				}
			}
		})
	}
}
