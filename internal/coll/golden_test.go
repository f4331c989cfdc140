package coll_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/xrand"
)

// collGolden is one collective's recorded outcome: a digest of every
// PE's result (FNV-1a over each rank's result words, ranks in order) and
// the run's six meters.
type collGolden struct {
	digest uint64
	stats  comm.Stats
}

// goldenCase is one collective call on a fixed input; run returns this
// PE's result as words.
type goldenCase struct {
	name string
	ps   []int
	run  func(pe *comm.PE) []uint64
}

// digestOf folds every rank's result words, ranks in order, each
// prefixed by its length.
func digestOf(res [][]uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(w uint64) {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= 1099511628211
			w >>= 8
		}
	}
	for _, r := range res {
		mix(uint64(len(r)))
		for _, w := range r {
			mix(w)
		}
	}
	return h
}

// goldenBlock is rank r's ragged block: (3r mod 4) words, zero-length on
// some ranks.
func goldenBlock(r int) []int64 {
	b := make([]int64, (3*r)%4)
	for i := range b {
		b[i] = int64(r*100 + i)
	}
	return b
}

// goldenItem is a router item: its destination rank and a payload.
type goldenItem struct {
	Dest    int
	Payload int64
}

func goldenItemDest(it goldenItem) int { return it.Dest }

// goldenItems are rank r's router items: a spread of destinations with
// repeats, so the combine hook has work to do.
func goldenItems(pe *comm.PE) []goldenItem {
	p := pe.P()
	items := make([]goldenItem, p+3)
	for i := range items {
		items[i] = goldenItem{Dest: (pe.Rank()*7 + i*5) % p, Payload: int64(pe.Rank()*1000 + i)}
	}
	return items
}

// goldenCombine sums payloads per destination and emits them in
// ascending destination order.
func goldenCombine(held []goldenItem) []goldenItem {
	slices.SortStableFunc(held, func(a, b goldenItem) int { return a.Dest - b.Dest })
	out := held[:0]
	for _, it := range held {
		if n := len(out); n > 0 && out[n-1].Dest == it.Dest {
			out[n-1].Payload += it.Payload
			continue
		}
		out = append(out, it)
	}
	return out
}

func wordsOfI64(s []int64) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = uint64(v)
	}
	return out
}

func wordsOfKVs(kvs []dht.KV) []uint64 {
	out := make([]uint64, 0, 2*len(kvs))
	for _, kv := range kvs {
		out = append(out, kv.Key, uint64(kv.Count))
	}
	return out
}

// goldenRuns is rank r's count runs: a skewed draw of keys, counted.
func goldenRuns(pe *comm.PE, seed int64) []dht.KV {
	rng := xrand.NewPE(seed, pe.Rank())
	keys := make([]uint64, 300)
	for i := range keys {
		u := rng.Uint64() % 64
		keys[i] = rng.Uint64() % (u + 1)
	}
	return dht.CountRuns(keys, nil)
}

func goldenCases() []goldenCase {
	collPs := []int{1, 2, 3, 5, 8, 16}
	dhtPs := []int{3, 16}
	routed := func(pe *comm.PE, combine func([]goldenItem) []goldenItem) []uint64 {
		var out []uint64
		for _, it := range coll.RouteCopy(pe, goldenItems(pe), goldenItemDest, combine) {
			out = append(out, uint64(it.Dest), uint64(it.Payload))
		}
		return out
	}
	countKV := func(mode dht.RouteMode) func(pe *comm.PE) []uint64 {
		return func(pe *comm.PE) []uint64 {
			shard := dht.CountKV(pe, goldenRuns(pe, 41), mode)
			out := wordsOfKVs(*shard)
			commbuf.Put(shard)
			return out
		}
	}
	return []goldenCase{
		{"Broadcast", collPs, func(pe *comm.PE) []uint64 {
			var data []int64
			root := pe.P() / 2
			if pe.Rank() == root {
				data = []int64{5, -3, 8, 13, 21}
			}
			return wordsOfI64(coll.Broadcast(pe, root, data))
		}},
		{"ExScanSum/int64", collPs, func(pe *comm.PE) []uint64 {
			return []uint64{uint64(coll.ExScanSum(pe, int64(pe.Rank()*7+3)))}
		}},
		{"ExScanSum/float64", collPs, func(pe *comm.PE) []uint64 {
			return []uint64{math.Float64bits(coll.ExScanSum(pe, 0.1*float64(pe.Rank())+1/3.0))}
		}},
		{"AllToAll", collPs, func(pe *comm.PE) []uint64 {
			parts := make([][]int64, pe.P())
			for d := range parts {
				parts[d] = make([]int64, (pe.Rank()+d)%3)
				for i := range parts[d] {
					parts[d][i] = int64(pe.Rank()*1000 + d*10 + i)
				}
			}
			var out []uint64
			for src, part := range coll.AllToAll(pe, parts) {
				out = append(out, uint64(src), uint64(len(part)))
				out = append(out, wordsOfI64(part)...)
			}
			return out
		}},
		{"AllGatherv", collPs, func(pe *comm.PE) []uint64 {
			var out []uint64
			for r, b := range coll.AllGatherv(pe, goldenBlock(pe.Rank())) {
				out = append(out, uint64(r), uint64(len(b)))
				out = append(out, wordsOfI64(b)...)
			}
			return out
		}},
		{"AllGatherConcat", collPs, func(pe *comm.PE) []uint64 {
			return wordsOfI64(coll.AllGatherConcat(pe, goldenBlock(pe.Rank())))
		}},
		{"Route/combine", collPs, func(pe *comm.PE) []uint64 { return routed(pe, goldenCombine) }},
		{"Route/plain", collPs, func(pe *comm.PE) []uint64 { return routed(pe, nil) }},
		{"dht.CountKV/direct", dhtPs, countKV(dht.RouteDirect)},
		{"dht.CountKV/hypercube", dhtPs, countKV(dht.RouteHypercube)},
		{"dht.BuildSBF+Resolve", dhtPs, func(pe *comm.PE) []uint64 {
			s := dht.BuildSBF(pe, goldenRuns(pe, 43))
			out := wordsOfKVs(s.Cells)
			// Resolve the first four owned cells of every PE (the gathered
			// list is identical on all PEs).
			var cells []uint32
			for _, kv := range s.Cells {
				if len(cells) < 4 {
					cells = append(cells, uint32(kv.Key))
				}
			}
			cells = coll.AllGatherConcat(pe, cells)
			return append(out, wordsOfKVs(s.Resolve(cells))...)
		}},
		{"dht.SelectTopK", dhtPs, func(pe *comm.PE) []uint64 {
			// The shard: the keys this PE owns among 0..199, counted
			// host-side so only the selection runs.
			var shard []dht.KV
			for key := uint64(0); key < 200; key++ {
				if dht.Owner(key, pe.P()) == pe.Rank() {
					shard = append(shard, dht.KV{Key: key, Count: int64(key*key*31) % 97})
				}
			}
			return wordsOfKVs(dht.SelectTopK(pe, shard, 11, xrand.NewPE(47, pe.Rank())))
		}},
	}
}

// TestCollectivesGolden pins every PE's result and the six meters of the
// data-movement collectives (broadcast, exclusive scan, all-to-all, both
// all-gathers, the hypercube router with and without a combine hook) at
// p ∈ {1, 2, 3, 5, 8, 16}, and of the dht layer that runs on them
// (CountKV on both routes, BuildSBF + Resolve, SelectTopK) at p ∈ {3, 16}.
// A rewrite of any of them must reproduce these bit for bit.
func TestCollectivesGolden(t *testing.T) {
	want := map[string]collGolden{
		"Broadcast/p=1":              {0xddcf54a6b8d2230f, comm.Stats{}},
		"Broadcast/p=2":              {0xb92783f49d92095, comm.Stats{TotalWords: 5, MaxSentWords: 5, MaxRecvWords: 5, TotalSends: 1, MaxSends: 1, MaxClock: 1005}},
		"Broadcast/p=3":              {0x13b0a0ab7031b09f, comm.Stats{TotalWords: 10, MaxSentWords: 10, MaxRecvWords: 5, TotalSends: 2, MaxSends: 2, MaxClock: 2010}},
		"Broadcast/p=5":              {0xa29c6c831a37e9ef, comm.Stats{TotalWords: 20, MaxSentWords: 15, MaxRecvWords: 5, TotalSends: 4, MaxSends: 3, MaxClock: 3015}},
		"Broadcast/p=8":              {0xb8cb60c64004e6e5, comm.Stats{TotalWords: 35, MaxSentWords: 15, MaxRecvWords: 5, TotalSends: 7, MaxSends: 3, MaxClock: 3015}},
		"Broadcast/p=16":             {0xafd0390237065ea5, comm.Stats{TotalWords: 75, MaxSentWords: 20, MaxRecvWords: 5, TotalSends: 15, MaxSends: 4, MaxClock: 4020}},
		"ExScanSum/int64/p=1":        {0x392209f14dea4c24, comm.Stats{}},
		"ExScanSum/int64/p=2":        {0x75223a62c8991786, comm.Stats{TotalWords: 2, MaxSentWords: 2, MaxRecvWords: 2, TotalSends: 2, MaxSends: 2, MaxClock: 2002}},
		"ExScanSum/int64/p=3":        {0x2f92b0c45cf47faa, comm.Stats{TotalWords: 5, MaxSentWords: 3, MaxRecvWords: 3, TotalSends: 5, MaxSends: 3, MaxClock: 4004}},
		"ExScanSum/int64/p=5":        {0xa96b76580bc2aa42, comm.Stats{TotalWords: 12, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 12, MaxSends: 4, MaxClock: 6006}},
		"ExScanSum/int64/p=8":        {0xd75abd815c591545, comm.Stats{TotalWords: 24, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 24, MaxSends: 4, MaxClock: 7007}},
		"ExScanSum/int64/p=16":       {0x91cbd312dab0f8bc, comm.Stats{TotalWords: 64, MaxSentWords: 5, MaxRecvWords: 5, TotalSends: 64, MaxSends: 5, MaxClock: 9009}},
		"ExScanSum/float64/p=1":      {0x392209f14dea4c24, comm.Stats{}},
		"ExScanSum/float64/p=2":      {0x336e92a07eda9baf, comm.Stats{TotalWords: 2, MaxSentWords: 2, MaxRecvWords: 2, TotalSends: 2, MaxSends: 2, MaxClock: 2002}},
		"ExScanSum/float64/p=3":      {0x607b0be26bd1de17, comm.Stats{TotalWords: 5, MaxSentWords: 3, MaxRecvWords: 3, TotalSends: 5, MaxSends: 3, MaxClock: 4004}},
		"ExScanSum/float64/p=5":      {0x52565fc32a3e4860, comm.Stats{TotalWords: 12, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 12, MaxSends: 4, MaxClock: 6006}},
		"ExScanSum/float64/p=8":      {0x9ed12e3b0577289d, comm.Stats{TotalWords: 24, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 24, MaxSends: 4, MaxClock: 7007}},
		"ExScanSum/float64/p=16":     {0xd708d55f928b1855, comm.Stats{TotalWords: 64, MaxSentWords: 5, MaxRecvWords: 5, TotalSends: 64, MaxSends: 5, MaxClock: 9009}},
		"AllToAll/p=1":               {0xcf21924e7b0ff7c7, comm.Stats{}},
		"AllToAll/p=2":               {0xe5eb80017a66fd4b, comm.Stats{TotalWords: 2, MaxSentWords: 1, MaxRecvWords: 1, TotalSends: 2, MaxSends: 1, MaxClock: 2002}},
		"AllToAll/p=3":               {0x5ff430ac7483dabf, comm.Stats{TotalWords: 6, MaxSentWords: 3, MaxRecvWords: 3, TotalSends: 6, MaxSends: 2, MaxClock: 4006}},
		"AllToAll/p=5":               {0x3f2d41c7e65c3357, comm.Stats{TotalWords: 20, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 20, MaxSends: 4, MaxClock: 8008}},
		"AllToAll/p=8":               {0x93cacfd96eeb284e, comm.Stats{TotalWords: 56, MaxSentWords: 7, MaxRecvWords: 7, TotalSends: 56, MaxSends: 7, MaxClock: 14014}},
		"AllToAll/p=16":              {0x8b756921ff2160d3, comm.Stats{TotalWords: 240, MaxSentWords: 16, MaxRecvWords: 16, TotalSends: 240, MaxSends: 15, MaxClock: 30032}},
		"AllGatherv/p=1":             {0xcf21924e7b0ff7c7, comm.Stats{}},
		"AllGatherv/p=2":             {0x9b3d47f108f5aaa5, comm.Stats{TotalWords: 5, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 2, MaxSends: 1, MaxClock: 2005}},
		"AllGatherv/p=3":             {0x27b4012c8ed7f10a, comm.Stats{TotalWords: 16, MaxSentWords: 8, MaxRecvWords: 7, TotalSends: 6, MaxSends: 2, MaxClock: 4012}},
		"AllGatherv/p=5":             {0x59c68c22bec2ec78, comm.Stats{TotalWords: 44, MaxSentWords: 15, MaxRecvWords: 10, TotalSends: 15, MaxSends: 3, MaxClock: 6022}},
		"AllGatherv/p=8":             {0x10d27e439a0ce4c5, comm.Stats{TotalWords: 140, MaxSentWords: 21, MaxRecvWords: 19, TotalSends: 24, MaxSends: 3, MaxClock: 6037}},
		"AllGatherv/p=16":            {0xfce4f26179c39725, comm.Stats{TotalWords: 600, MaxSentWords: 41, MaxRecvWords: 39, TotalSends: 64, MaxSends: 4, MaxClock: 8077}},
		"AllGatherConcat/p=1":        {0xa8c7f832281a39c5, comm.Stats{}},
		"AllGatherConcat/p=2":        {0x5a43aedf65adee25, comm.Stats{TotalWords: 5, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 2, MaxSends: 1, MaxClock: 2005}},
		"AllGatherConcat/p=3":        {0x274fbe4d857be926, comm.Stats{TotalWords: 16, MaxSentWords: 8, MaxRecvWords: 7, TotalSends: 6, MaxSends: 2, MaxClock: 4012}},
		"AllGatherConcat/p=5":        {0x263efe4b3a81bb7e, comm.Stats{TotalWords: 44, MaxSentWords: 15, MaxRecvWords: 10, TotalSends: 15, MaxSends: 3, MaxClock: 6022}},
		"AllGatherConcat/p=8":        {0x61853f19a9db7da5, comm.Stats{TotalWords: 140, MaxSentWords: 21, MaxRecvWords: 19, TotalSends: 24, MaxSends: 3, MaxClock: 6037}},
		"AllGatherConcat/p=16":       {0xc9bfb9d0b347d4e5, comm.Stats{TotalWords: 600, MaxSentWords: 41, MaxRecvWords: 39, TotalSends: 64, MaxSends: 4, MaxClock: 8077}},
		"Route/combine/p=1":          {0x1540e81839743b01, comm.Stats{}},
		"Route/combine/p=2":          {0x3285186b573d5ca8, comm.Stats{TotalWords: 8, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 2, MaxSends: 1, MaxClock: 2008}},
		"Route/combine/p=3":          {0x357bd45f2ab105b2, comm.Stats{TotalWords: 24, MaxSentWords: 12, MaxRecvWords: 20, TotalSends: 4, MaxSends: 2, MaxClock: 4024}},
		"Route/combine/p=5":          {0xbb3c435c570ed924, comm.Stats{TotalWords: 44, MaxSentWords: 18, MaxRecvWords: 34, TotalSends: 10, MaxSends: 3, MaxClock: 6040}},
		"Route/combine/p=8":          {0xc1dc49cd39955d35, comm.Stats{TotalWords: 128, MaxSentWords: 16, MaxRecvWords: 16, TotalSends: 24, MaxSends: 3, MaxClock: 6032}},
		"Route/combine/p=16":         {0xceaa46f2a0e387f3, comm.Stats{TotalWords: 512, MaxSentWords: 32, MaxRecvWords: 32, TotalSends: 64, MaxSends: 4, MaxClock: 8064}},
		"Route/plain/p=1":            {0xe74fe34d308707cd, comm.Stats{}},
		"Route/plain/p=2":            {0x2331989282e8f549, comm.Stats{TotalWords: 8, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 2, MaxSends: 1, MaxClock: 2008}},
		"Route/plain/p=3":            {0x6f668f50ea583118, comm.Stats{TotalWords: 40, MaxSentWords: 20, MaxRecvWords: 20, TotalSends: 4, MaxSends: 2, MaxClock: 4040}},
		"Route/plain/p=5":            {0x9e6288050a88ac5, comm.Stats{TotalWords: 128, MaxSentWords: 48, MaxRecvWords: 48, TotalSends: 10, MaxSends: 3, MaxClock: 6096}},
		"Route/plain/p=8":            {0xc2e6b3553b151a24, comm.Stats{TotalWords: 248, MaxSentWords: 32, MaxRecvWords: 32, TotalSends: 24, MaxSends: 3, MaxClock: 6064}},
		"Route/plain/p=16":           {0xfb85b4f1b883668c, comm.Stats{TotalWords: 1184, MaxSentWords: 76, MaxRecvWords: 76, TotalSends: 64, MaxSends: 4, MaxClock: 8152}},
		"dht.CountKV/direct/p=3":     {0xb19823afb3755d7f, comm.Stats{TotalWords: 212, MaxSentWords: 76, MaxRecvWords: 78, TotalSends: 6, MaxSends: 2, MaxClock: 4142}},
		"dht.CountKV/direct/p=16":    {0x146b969aec620e53, comm.Stats{TotalWords: 1594, MaxSentWords: 110, MaxRecvWords: 238, TotalSends: 240, MaxSends: 15, MaxClock: 30328}},
		"dht.CountKV/hypercube/p=3":  {0xb19823afb3755d7f, comm.Stats{TotalWords: 244, MaxSentWords: 106, MaxRecvWords: 170, TotalSends: 4, MaxSends: 2, MaxClock: 4244}},
		"dht.CountKV/hypercube/p=16": {0x146b969aec620e53, comm.Stats{TotalWords: 1702, MaxSentWords: 116, MaxRecvWords: 130, TotalSends: 64, MaxSends: 4, MaxClock: 8232}},
		"dht.BuildSBF+Resolve/p=3":   {0x28f99d2e3f687df1, comm.Stats{TotalWords: 304, MaxSentWords: 108, MaxRecvWords: 146, TotalSends: 16, MaxSends: 6, MaxClock: 12250}},
		"dht.BuildSBF+Resolve/p=16":  {0x792228fb8a5b90e2, comm.Stats{TotalWords: 24070, MaxSentWords: 1523, MaxRecvWords: 1523, TotalSends: 192, MaxSends: 12, MaxClock: 27028}},
		"dht.SelectTopK/p=3":         {0x87e5211d945fb9ed, comm.Stats{TotalWords: 169, MaxSentWords: 65, MaxRecvWords: 94, TotalSends: 31, MaxSends: 15, MaxClock: 27153}},
		"dht.SelectTopK/p=16":        {0xce56201a7064b625, comm.Stats{TotalWords: 1306, MaxSentWords: 154, MaxRecvWords: 186, TotalSends: 346, MaxSends: 29, MaxClock: 57319}},
	}
	for _, c := range goldenCases() {
		for _, p := range c.ps {
			name := fmt.Sprintf("%s/p=%d", c.name, p)
			m := comm.NewMachine(comm.DefaultConfig(p))
			res := make([][]uint64, p)
			m.MustRun(func(pe *comm.PE) { res[pe.Rank()] = c.run(pe) })
			got := collGolden{digestOf(res), m.Stats()}
			m.Close()
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("%q: {%#x, comm.Stats{TotalWords: %d, MaxSentWords: %d, MaxRecvWords: %d, TotalSends: %d, MaxSends: %d, MaxClock: %v}},",
					name, got.digest, got.stats.TotalWords, got.stats.MaxSentWords, got.stats.MaxRecvWords,
					got.stats.TotalSends, got.stats.MaxSends, got.stats.MaxClock)
			}
		}
	}
}
