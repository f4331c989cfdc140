package serve

import (
	"reflect"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/xrand"
)

// freqQuery is one entry of a Kth/TopKFreq workload: freq selects the
// heavy-hitter kind (k is the top-k size), otherwise k is a rank.
type freqQuery struct {
	freq bool
	k    int64
}

// freqOutcome is one query's observable including the heavy-hitter item
// list (nil for Kth queries).
type freqOutcome struct {
	res   uint64
	items []dht.KV
	words int64
	sends int64
}

// runServedFreq executes a mixed Kth/TopKFreq workload, sequentially or
// fully concurrently, returning per-query outcomes in submission order.
func runServedFreq(t *testing.T, m *comm.Machine, shards [][]uint64, queries []freqQuery, cfg Config, concurrent bool) []freqOutcome {
	t.Helper()
	s, err := NewServer(m, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(q freqQuery) *Ticket[uint64] {
		var tk *Ticket[uint64]
		var err error
		if q.freq {
			tk, err = s.TopKFreq(int(q.k))
		} else {
			tk, err = s.Kth(q.k)
		}
		if err != nil {
			t.Fatalf("submit %+v: %v", q, err)
		}
		return tk
	}
	out := make([]freqOutcome, len(queries))
	collect := func(i int, tk *Ticket[uint64]) {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		w, sd := tk.Meters()
		out[i] = freqOutcome{res: res, items: tk.Items(), words: w, sends: sd}
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

// mkSkewedShards builds p shards with a heavily skewed key distribution
// (key u appears roughly proportional to 1/(u+1)) so TopKFreq has real
// heavy hitters, plus the exact global counts.
func mkSkewedShards(p int, seed int64) ([][]uint64, map[uint64]int64) {
	rng := xrand.New(seed)
	shards := make([][]uint64, p)
	exact := map[uint64]int64{}
	for r := range shards {
		n := 1500 + r*67%500
		sh := make([]uint64, n)
		for j := range sh {
			// Two geometric-ish draws folded: small keys dominate.
			u := rng.Uint64() % 64
			v := rng.Uint64() % (u + 1)
			sh[j] = v
			exact[v]++
		}
		shards[r] = sh
	}
	return shards, exact
}

// TestServeFreqConcurrentMatchesSequential extends the serving
// differential to the third query kind: a workload mixing Kth
// selections with TopKFreq heavy-hitter queries must produce
// bit-identical per-query answers, item lists, AND attributed meters
// whether run strictly one at a time or at full inflight depth, on both
// executors, with the production scheduler squeezed to w < p.
// TopKFreq runs the whole PAC pipeline (sampling, DHT routing, shard
// top-k selection) under a leased context, so this pins that its
// multi-collective chain — including the buffers of its pooled stepper
// states and its RNG streams — does not leak between tenants.
func TestServeFreqConcurrentMatchesSequential(t *testing.T) {
	const p = 8
	shards, _ := mkSkewedShards(p, 77)
	var sorted []uint64
	for _, sh := range shards {
		sorted = append(sorted, sh...)
	}
	n := int64(len(sorted))
	queries := []freqQuery{
		{true, 4}, {false, 1}, {true, 8}, {false, n / 2},
		{false, n}, {true, 2}, {true, 4}, {false, 17},
		{true, 6}, {false, n / 3},
	}
	for _, tc := range serveRigs(p) {
		t.Run(tc.name, func(t *testing.T) {
			seqM := tc.mk()
			defer seqM.Close()
			seq := runServedFreq(t, seqM, shards, queries, Config{MaxInflight: 1, BatchMax: 1, Seed: 61}, false)
			conM := tc.mk()
			defer conM.Close()
			con := runServedFreq(t, conM, shards, queries, Config{MaxInflight: 6, BatchMax: 4, Seed: 61}, true)
			for i, q := range queries {
				if !reflect.DeepEqual(seq[i], con[i]) {
					t.Errorf("query %d (%+v): outcomes diverge\n  sequential: %+v\n  concurrent: %+v",
						i, q, seq[i], con[i])
				}
				if q.freq {
					if len(seq[i].items) != int(q.k) {
						t.Errorf("query %d: TopKFreq returned %d items, want %d", i, len(seq[i].items), q.k)
					}
					for j := 1; j < len(seq[i].items); j++ {
						if seq[i].items[j].Count > seq[i].items[j-1].Count {
							t.Errorf("query %d: items not sorted by count desc", i)
						}
					}
				}
			}
		})
	}
}
