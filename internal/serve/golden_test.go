package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// TestServeMixedGolden pins a fixed Kth/DeleteMin sequence at
// p ∈ {1, 3, 16}: every query's answer, realized batch size and
// attributed words and sends, bit for bit, served strictly one at a time
// and at full inflight depth. The sequence ends with a DeleteMin asking
// for at least what remains and one on the emptied queue; Kth queries
// after them still answer from the whole key set.
func TestServeMixedGolden(t *testing.T) {
	want := map[int][]queryOutcome{
		1: {
			{res: 562651720480456706, n: 0, words: 0, sends: 0},
			{res: 2671526869773320206, n: 5, words: 0, sends: 0},
			{res: 9380663006505992229, n: 0, words: 0, sends: 0},
			{res: 3293464593270046749, n: 1, words: 0, sends: 0},
			{res: 0, n: 34, words: 0, sends: 0},
			{res: 18386531863682351127, n: 0, words: 0, sends: 0},
			{res: 0, n: 0, words: 0, sends: 0},
			{res: 3383257305409650698, n: 0, words: 0, sends: 0},
			{res: 0, n: 0, words: 0, sends: 0},
			{res: 4728667202415230996, n: 0, words: 0, sends: 0},
		},
		3: {
			{res: 107687713590739073, n: 0, words: 8, sends: 4},
			{res: 562651720480456706, n: 5, words: 32, sends: 8},
			{res: 9848460403976175765, n: 0, words: 101, sends: 8},
			{res: 748566039293329470, n: 1, words: 16, sends: 8},
			{res: 4962326346748395558, n: 37, words: 106, sends: 12},
			{res: 18445585215121260587, n: 0, words: 35, sends: 4},
			{res: 0, n: 116, words: 8, sends: 4},
			{res: 1334437871725052062, n: 0, words: 103, sends: 8},
			{res: 0, n: 0, words: 8, sends: 4},
			{res: 6899904195984359526, n: 0, words: 111, sends: 8},
		},
		16: {
			{res: 34428792639324519, n: 0, words: 128, sends: 64},
			{res: 129839787077009564, n: 5, words: 393, sends: 94},
			{res: 8712363069245751545, n: 0, words: 807, sends: 90},
			{res: 175869751220765394, n: 1, words: 256, sends: 128},
			{res: 748566039293329470, n: 37, words: 735, sends: 124},
			{res: 18445890744356962677, n: 0, words: 601, sends: 90},
			{res: 0, n: 807, words: 128, sends: 64},
			{res: 177682610788499597, n: 0, words: 725, sends: 90},
			{res: 0, n: 0, words: 128, sends: 64},
			{res: 5957843835285406165, n: 0, words: 823, sends: 90},
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
			if !reflect.DeepEqual(got, want[p]) {
				t.Errorf("p=%d concurrent=%v:\n got %s\nwant %s", p, run.concurrent, fmtServeGolden(got), fmtServeGolden(want[p]))
			}
		}
	}
}

// fmtServeGolden prints outcomes as the literal of a want entry.
func fmtServeGolden(outs []queryOutcome) string {
	s := "{\n"
	for _, o := range outs {
		s += fmt.Sprintf("\t{res: %d, n: %d, words: %d, sends: %d},\n", o.res, o.n, o.words, o.sends)
	}
	return s + "}"
}

// TestServeKthGolden pins served Kth at a shape with a populated rank
// table and bounded windows: p = 16 shards of 2^13 unique keys, a few
// hundred ranks (1, n, evenly spaced ranks, and each side of the global
// rank of every 8th shard key contributed at a 16p stride), served one
// at a time and at full inflight depth. Every answer must equal the sort
// oracle; the attributed meters are pinned as their sums and a digest of
// the per-query (words, sends) sequence. A Kth ticket is metered what its
// selection sends alone, so the pins hold at depth too, where the machine
// must send fewer messages than one at a time: the queries in flight
// share their levels' sweeps. Selecting over all n keys, with no rank
// table, the same queries sent 458 183 words in 51 128 messages.
// The thin shape of the serving benchmark (p = 64, n/p = 256 random keys,
// every shard shorter than 16p, so no rank table) is pinned the same way,
// served one at a time.
func TestServeKthGolden(t *testing.T) {
	const p, perPE = 16, 1 << 13
	const wantWords, wantSends, wantDigest = 118848, 18818, 0x16b40019a354f158
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
		var words, sends int64
		h := fnv.New64a()
		for i, o := range got {
			if want := sorted[ranks[i]-1]; o.res != want {
				t.Errorf("concurrent=%v: Kth(%d) = %d, want %d", run.concurrent, ranks[i], o.res, want)
			}
			words += o.words
			sends += o.sends
			binary.Write(h, binary.LittleEndian, [2]int64{o.words, o.sends})
		}
		if words != wantWords || sends != wantSends || h.Sum64() != wantDigest {
			t.Errorf("concurrent=%v: %d queries: words %d, sends %d, digest %#x; want %d, %d, %#x",
				run.concurrent, len(ranks), words, sends, h.Sum64(), wantWords, wantSends, uint64(wantDigest))
		}
	}
	t.Run("thin", func(t *testing.T) {
		const p, perPE = 64, 256
		const wantWords, wantSends, wantDigest = 201001, 33900, 0xc152f0f2b8393997
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
		var words, sends int64
		h := fnv.New64a()
		for i, o := range got {
			if want := sorted[ranks[i]-1]; o.res != want {
				t.Errorf("Kth(%d) = %d, want %d", ranks[i], o.res, want)
			}
			words += o.words
			sends += o.sends
			binary.Write(h, binary.LittleEndian, [2]int64{o.words, o.sends})
		}
		if words != wantWords || sends != wantSends || h.Sum64() != wantDigest {
			t.Errorf("%d queries: words %d, sends %d, digest %#x; want %d, %d, %#x",
				len(ranks), words, sends, h.Sum64(), wantWords, wantSends, uint64(wantDigest))
		}
	})
}
