package serve

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// TestServeMixedGolden pins a fixed Kth/DeleteMin sequence at
// p ∈ {1, 3, 16}, served strictly one at a time and at full inflight
// depth: every query's answer and realized batch size, and apart from
// them its attributed words and sends, bit for bit. The sequence ends
// with a DeleteMin asking for at least what remains and one on the
// emptied queue; Kth queries after them still answer from the whole key
// set.
func TestServeMixedGolden(t *testing.T) {
	wantAnswers := map[int][]answer{
		1: {
			{562651720480456706, 0}, {2671526869773320206, 5}, {9380663006505992229, 0},
			{3293464593270046749, 1}, {0, 34}, {18386531863682351127, 0},
			{0, 0}, {3383257305409650698, 0}, {0, 0}, {4728667202415230996, 0},
		},
		3: {
			{107687713590739073, 0}, {562651720480456706, 5}, {9848460403976175765, 0},
			{748566039293329470, 1}, {4962326346748395558, 37}, {18445585215121260587, 0},
			{0, 116}, {1334437871725052062, 0}, {0, 0}, {6899904195984359526, 0},
		},
		16: {
			{34428792639324519, 0}, {129839787077009564, 5}, {8712363069245751545, 0},
			{175869751220765394, 1}, {748566039293329470, 37}, {18445890744356962677, 0},
			{0, 807}, {177682610788499597, 0}, {0, 0}, {5957843835285406165, 0},
		},
	}
	wantMeters := map[int][]meter{
		1: {{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
		3: {{8, 4}, {32, 8}, {73, 4}, {16, 8}, {106, 12}, {17, 4}, {8, 4}, {71, 4}, {8, 4}, {71, 4}},
		16: {
			{128, 64}, {393, 94}, {296, 30}, {256, 128}, {735, 124},
			{267, 30}, {128, 64}, {320, 30}, {128, 64}, {291, 30},
		},
	}
	for _, p := range []int{1, 3, 16} {
		shards, sorted := mkUniqueShards(p, 57)
		n := int64(len(sorted))
		queries := []mixedQuery{
			{false, 1}, {true, 5}, {false, n / 2}, {true, 1}, {true, 37},
			{false, n}, {true, n}, {false, 7}, {true, 3}, {false, n / 3},
		}
		for _, run := range []struct {
			cfg        Config
			concurrent bool
		}{
			{Config{MaxInflight: 1, BatchMax: 1, Seed: 41}, false},
			{Config{MaxInflight: 6, BatchMax: 4, Seed: 41}, true},
		} {
			m := comm.NewMachine(comm.DefaultConfig(p))
			got := runServedMixed(t, m, shards, queries, run.cfg, run.concurrent)
			m.Close()
			answers, meters := splitOutcomes(got)
			if !slices.Equal(answers, wantAnswers[p]) {
				t.Errorf("p=%d concurrent=%v: answers\n got %v\nwant %v", p, run.concurrent, answers, wantAnswers[p])
			}
			if !slices.Equal(meters, wantMeters[p]) {
				t.Errorf("p=%d concurrent=%v: meters\n got %v\nwant %v", p, run.concurrent, meters, wantMeters[p])
			}
		}
	}
}

// answer is a query's observable result: its answer and realized batch
// size. meter is its attributed words and sends.
type (
	answer struct {
		res uint64
		n   int64
	}
	meter struct{ words, sends int64 }
)

// splitOutcomes splits outcomes into their answers and their meters.
func splitOutcomes(outs []queryOutcome) ([]answer, []meter) {
	answers, meters := make([]answer, len(outs)), make([]meter, len(outs))
	for i, o := range outs {
		answers[i], meters[i] = answer{o.res, o.n}, meter{o.words, o.sends}
	}
	return answers, meters
}

// kthDigests checks served Kth outcomes against the sorted union and
// folds them into an answers digest and a meters digest (with the meters'
// sums), each over the per-query sequence.
func kthDigests(t *testing.T, outs []queryOutcome, ranks []int64, sorted []uint64) (answers, meters uint64, words, sends int64) {
	t.Helper()
	ha, hm := fnv.New64a(), fnv.New64a()
	for i, o := range outs {
		if want := sorted[ranks[i]-1]; o.res != want {
			t.Errorf("Kth(%d) = %d, want %d", ranks[i], o.res, want)
		}
		binary.Write(ha, binary.LittleEndian, o.res)
		binary.Write(hm, binary.LittleEndian, [2]int64{o.words, o.sends})
		words += o.words
		sends += o.sends
	}
	return ha.Sum64(), hm.Sum64(), words, sends
}

// TestServeKthGolden pins served Kth at a shape with a populated rank
// table: p = 16 shards of 2^13 unique keys, a few hundred ranks (1, n,
// evenly spaced ranks, and each side of the global rank of every
// (128p)-th key of every shard), served one at a time and at full
// inflight depth. Every answer must equal the sort
// oracle and the answers are pinned as a digest of their sequence; apart
// from them, the attributed meters are pinned as their sums and a digest
// of the per-query (words, sends) sequence. A Kth ticket is metered what its
// selection sends alone, so the pins hold at depth too, where the machine
// must send fewer messages than one at a time: the queries in flight
// share their levels' sweeps. The same queries sent 458 183 words in
// 51 128 messages selecting over all n keys, and 118 848 words in 18 818
// messages in the windows of a table of every (16p)-th key of every
// shard. The thin shape of the serving benchmark (p = 64, n/p = 256
// random keys) is pinned the same way, served one at a time; with no
// table it sent 201 001 words in 33 900 messages.
func TestServeKthGolden(t *testing.T) {
	const p, perPE = 16, 1 << 13
	const wantAnswers = 0x3437ddfc03b866a8
	const wantWords, wantSends, wantMeters = 86085, 8892, 0xed9db9e3baeca89d
	rng := xrand.New(42)
	shards := make([][]uint64, p)
	var sorted []uint64
	for r := range shards {
		shards[r] = make([]uint64, perPE)
		for j := range shards[r] {
			shards[r][j] = rng.Uint64()<<20 | uint64(len(sorted))
			sorted = append(sorted, shards[r][j])
		}
	}
	slices.Sort(sorted)
	n := int64(len(sorted))
	ranks := []int64{1, n}
	for i := int64(1); i < 100; i++ {
		ranks = append(ranks, 1+i*(n-1)/100)
	}
	stride := 16 * p
	for _, sh := range shards {
		own := slices.Sorted(slices.Values(sh))
		for i := stride - 1; i < len(own); i += 8 * stride {
			r, _ := slices.BinarySearch(sorted, own[i])
			ranks = append(ranks, int64(r), int64(r+1), int64(r+2))
		}
	}
	var seqSent int64
	for _, run := range []struct {
		cfg        Config
		concurrent bool
	}{
		{Config{MaxInflight: 1, BatchMax: 1, Seed: 43}, false},
		{Config{QueueDepth: 512, MaxInflight: 6, BatchMax: 4, Seed: 43}, true},
	} {
		m := comm.NewMachine(comm.DefaultConfig(p))
		got := runServed(t, m, shards, ranks, run.cfg, run.concurrent)
		sent := m.Stats().TotalSends
		m.Close()
		if !run.concurrent {
			seqSent = sent
		} else if sent >= seqSent {
			t.Errorf("concurrent: the machine sent %d messages, %d one at a time; want fewer", sent, seqSent)
		} else {
			t.Logf("the machine sent %d messages at depth, %d one at a time", sent, seqSent)
		}
		answers, meters, words, sends := kthDigests(t, got, ranks, sorted)
		if answers != wantAnswers {
			t.Errorf("concurrent=%v: %d queries: answers digest %#x, want %#x", run.concurrent, len(ranks), answers, uint64(wantAnswers))
		}
		if words != wantWords || sends != wantSends || meters != wantMeters {
			t.Errorf("concurrent=%v: %d queries: words %d, sends %d, meters digest %#x; want %d, %d, %#x",
				run.concurrent, len(ranks), words, sends, meters, wantWords, wantSends, uint64(wantMeters))
		}
	}
	t.Run("thin", func(t *testing.T) {
		const p, perPE = 64, 256
		const wantAnswers = 0x377ad3a99301fb2c
		const wantWords, wantSends, wantMeters = 51986, 8196, 0x859d2ba1b0d4b249
		shards := make([][]uint64, p)
		var sorted []uint64
		for r := range shards {
			rng := xrand.NewPE(47, r)
			shards[r] = make([]uint64, perPE)
			for j := range shards[r] {
				shards[r][j] = rng.Uint64()
			}
			sorted = append(sorted, shards[r]...)
		}
		slices.Sort(sorted)
		n := int64(len(sorted))
		ranks := []int64{1, 2, n / 2, n}
		for i := int64(1); i < 60; i++ {
			ranks = append(ranks, 1+i*(n-1)/60)
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		got := runServed(t, m, shards, ranks, Config{MaxInflight: 1, BatchMax: 1, Seed: 53}, false)
		m.Close()
		answers, meters, words, sends := kthDigests(t, got, ranks, sorted)
		if answers != wantAnswers {
			t.Errorf("%d queries: answers digest %#x, want %#x", len(ranks), answers, uint64(wantAnswers))
		}
		if words != wantWords || sends != wantSends || meters != wantMeters {
			t.Errorf("%d queries: words %d, sends %d, meters digest %#x; want %d, %d, %#x",
				len(ranks), words, sends, meters, wantWords, wantSends, uint64(wantMeters))
		}
	})
}
