package mtopk

import (
	"fmt"
	"reflect"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// mtopkGolden is the golden fixture's recorded outcome: every PE's RDTA
// hits, TopK hits and TopK's DTAResult, with each algorithm's meters.
type mtopkGolden struct {
	rdta      [][]Hit
	rdtaStats comm.Stats
	topk      [][]Hit
	dta       []DTAResult
	topkStats comm.Stats
}

// goldenData is the golden fixture: 40 objects per PE with three scores
// in steps of 1/8, so equal overall scores are common within and across
// PEs and the grant of tied hits decides which PE keeps which.
func goldenData(p int) []*Data {
	datas := make([]*Data, p)
	for r := range datas {
		objs := GenObjects(xrand.NewPE(59, r), 40, 3, uint64(r)<<32)
		for _, o := range objs {
			for i, x := range o.Scores {
				o.Scores[i] = float64(int(x*8)) / 8
			}
		}
		datas[r] = NewData(objs, 3)
	}
	return datas
}

// TestMtopkResultsGolden pins RDTA and TopK on a fixed fixture, bit for
// bit, at p ∈ {1, 3, 16}: every PE's share of the top-k, TopK's
// DTAResult (threshold, depth, prefix lengths, hits, rounds, estimate)
// and all six meters of each algorithm. The local TA runs, the k̂
// doubling, the selection's RNG draws and the grant of tied hits feed
// into these values. The meters were restated once, results unchanged,
// when the final selection stopped summing the hit count a second time
// (one scalar all-reduce fewer per call).
func TestMtopkResultsGolden(t *testing.T) {
	want := map[int]mtopkGolden{
		1: {
			rdta: [][]Hit{
				{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}, {0x8, 1.875}, {0x17, 1.875}},
			},
			rdtaStats: comm.Stats{},
			topk: [][]Hit{
				{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}, {0x8, 1.875}, {0x17, 1.875}},
			},
			dta: []DTAResult{
				{Threshold: 0.75, K: 16, PrefixLens: []int{30, 30, 30}, Hits: []Hit{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}, {0x8, 1.875}, {0x17, 1.875}, {0x1e, 1.875}, {0x1d, 1.75}, {0x1f, 1.75}, {0x23, 1.625}, {0x7, 1.5}, {0x3, 1.375}, {0x6, 1.375}, {0xe, 1.375}, {0x13, 1.375}, {0x14, 1.375}, {0x21, 1.375}, {0xa, 1.25}, {0xb, 1.25}, {0x12, 1.25}, {0x19, 1.25}, {0x24, 1.25}, {0xc, 1.125}, {0x1a, 1.125}, {0x20, 1.125}, {0x15, 1}, {0x2, 0.875}, {0x10, 0.875}, {0x22, 0.875}, {0x25, 0.875}, {0x11, 0.75}}, Rounds: 3, EstimatedHits: 34.453125},
			},
			topkStats: comm.Stats{},
		},
		3: {
			rdta: [][]Hit{
				{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}},
				{{0x100000025, 2.25}, {0x10000000e, 2.125}},
				{{0x200000010, 2.25}, {0x200000003, 2.125}},
			},
			rdtaStats: comm.Stats{TotalWords: 51, MaxSentWords: 21, MaxRecvWords: 28, TotalSends: 25, MaxSends: 13, MaxClock: 23049},
			topk: [][]Hit{
				{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}},
				{{0x100000025, 2.25}, {0x10000000e, 2.125}},
				{{0x200000010, 2.25}, {0x200000003, 2.125}},
			},
			dta: []DTAResult{
				{Threshold: 1.625, K: 32, PrefixLens: []int{16, 19, 18}, Hits: []Hit{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}, {0x8, 1.875}, {0x17, 1.875}, {0x1e, 1.875}, {0x1d, 1.75}, {0x1f, 1.75}, {0x23, 1.625}}, Rounds: 4, EstimatedHits: 31.435000000000002},
				{Threshold: 1.625, K: 32, PrefixLens: []int{15, 20, 21}, Hits: []Hit{{0x100000025, 2.25}, {0x10000000e, 2.125}, {0x100000017, 2}, {0x10000001c, 2}, {0x10000000b, 1.75}, {0x100000013, 1.75}, {0x100000021, 1.75}, {0x100000022, 1.75}, {0x100000000, 1.625}, {0x100000001, 1.625}, {0x100000003, 1.625}, {0x100000005, 1.625}, {0x10000000f, 1.625}, {0x100000016, 1.625}, {0x100000026, 1.625}}, Rounds: 4, EstimatedHits: 31.435000000000002},
				{Threshold: 1.625, K: 32, PrefixLens: []int{9, 19, 19}, Hits: []Hit{{0x200000010, 2.25}, {0x200000003, 2.125}, {0x200000014, 2.125}, {0x200000000, 2}, {0x200000004, 1.875}, {0x200000006, 1.875}, {0x200000009, 1.875}, {0x20000000d, 1.875}, {0x200000015, 1.75}, {0x200000016, 1.75}, {0x20000001c, 1.625}, {0x200000022, 1.625}}, Rounds: 4, EstimatedHits: 31.435000000000002},
			},
			topkStats: comm.Stats{TotalWords: 2481, MaxSentWords: 1225, MaxRecvWords: 1254, TotalSends: 593, MaxSends: 297, MaxClock: 593479},
		},
		16: {
			rdta: [][]Hit{
				{{0x1, 2.25}, {0xd, 2.25}},
				{{0x100000025, 2.25}},
				{{0x200000010, 2.25}},
				nil,
				{{0x400000013, 2.375}},
				nil,
				{{0x600000010, 2.5}},
				nil,
				nil,
				nil,
				{{0xa0000001a, 2.5}},
				nil,
				{{0xc00000024, 2.625}},
				{{0xd00000015, 2.375}},
				nil,
				nil,
			},
			rdtaStats: comm.Stats{TotalWords: 921, MaxSentWords: 140, MaxRecvWords: 171, TotalSends: 410, MaxSends: 33, MaxClock: 65268},
			topk: [][]Hit{
				{{0x1, 2.25}, {0xd, 2.25}},
				{{0x100000025, 2.25}},
				{{0x200000010, 2.25}},
				nil,
				{{0x400000013, 2.375}},
				nil,
				{{0x600000010, 2.5}},
				nil,
				nil,
				nil,
				{{0xa0000001a, 2.5}},
				nil,
				{{0xc00000024, 2.625}},
				{{0xd00000015, 2.375}},
				nil,
				nil,
			},
			dta: []DTAResult{
				{Threshold: 2, K: 128, PrefixLens: []int{8, 13, 16}, Hits: []Hit{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{11, 15, 18}, Hits: []Hit{{0x100000025, 2.25}, {0x10000000e, 2.125}, {0x100000017, 2}, {0x10000001c, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{6, 17, 11}, Hits: []Hit{{0x200000010, 2.25}, {0x200000003, 2.125}, {0x200000014, 2.125}, {0x200000000, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{12, 14, 13}, Hits: []Hit{{0x300000024, 2.25}, {0x30000000d, 2.125}, {0x30000001e, 2.125}, {0x30000001f, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{12, 13, 12}, Hits: []Hit{{0x400000013, 2.375}, {0x40000001d, 2.125}, {0x40000000f, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{6, 17, 15}, Hits: []Hit{{0x500000000, 2.125}, {0x500000022, 2.125}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{10, 18, 15}, Hits: []Hit{{0x600000010, 2.5}, {0x600000013, 2.25}, {0x60000001f, 2.25}, {0x60000000e, 2.125}, {0x600000018, 2.125}, {0x600000021, 2.125}, {0x600000006, 2}, {0x600000015, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{9, 19, 13}, Hits: []Hit{{0x700000011, 2.25}, {0x70000000c, 2}, {0x700000013, 2}, {0x70000001a, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{7, 11, 19}, Hits: []Hit{{0x80000000e, 2.125}, {0x800000013, 2.125}, {0x80000001f, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{10, 15, 15}, Hits: []Hit{{0x900000011, 2.25}, {0x90000001c, 2.125}, {0x900000021, 2.125}, {0x90000000c, 2}, {0x90000000f, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{13, 24, 18}, Hits: []Hit{{0xa0000001a, 2.5}, {0xa00000011, 2.125}, {0xa00000016, 2.125}, {0xa00000017, 2.125}, {0xa0000001d, 2.125}, {0xa00000026, 2.125}, {0xa00000015, 2}, {0xa00000020, 2}, {0xa00000025, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{9, 19, 18}, Hits: []Hit{{0xb00000007, 2.25}, {0xb00000027, 2.25}, {0xb00000014, 2.125}, {0xb00000026, 2.125}, {0xb00000017, 2}, {0xb0000001e, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{13, 8, 17}, Hits: []Hit{{0xc00000024, 2.625}, {0xc00000019, 2.25}, {0xc00000000, 2}, {0xc00000006, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{11, 14, 12}, Hits: []Hit{{0xd00000015, 2.375}, {0xd0000000a, 2.25}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{14, 13, 12}, Hits: []Hit{{0xe0000000d, 2.125}, {0xe00000016, 2.125}, {0xe00000021, 2.125}, {0xe00000026, 2.125}, {0xe0000000c, 2}, {0xe0000001b, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
				{Threshold: 2, K: 128, PrefixLens: []int{10, 19, 13}, Hits: []Hit{{0xf00000001, 2.25}, {0xf0000001c, 2.25}, {0xf00000012, 2.125}, {0xf00000015, 2.125}, {0xf0000001a, 2}}, Rounds: 6, EstimatedHits: 65.70153061224488},
			},
			topkStats: comm.Stats{TotalWords: 146507, MaxSentWords: 9745, MaxRecvWords: 10061, TotalSends: 33696, MaxSends: 2141, MaxClock: 4300389},
		},
	}
	const k = 9
	for _, p := range []int{1, 3, 16} {
		datas := goldenData(p)
		got := mtopkGolden{rdta: make([][]Hit, p), topk: make([][]Hit, p), dta: make([]DTAResult, p)}
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			got.rdta[r] = RDTA(pe, datas[r], SumScore, k, xrand.NewPE(103, r))
		})
		got.rdtaStats = m.Stats()
		m.Close()
		m = comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			got.topk[r], got.dta[r] = TopK(pe, datas[r], SumScore, k, xrand.NewPE(105, r))
		})
		got.topkStats = m.Stats()
		m.Close()
		if w := want[p]; !reflect.DeepEqual(got, w) {
			t.Errorf("p=%d:\n got %s\nwant %s", p, fmtMtopkGolden(got), fmtMtopkGolden(w))
		}
	}
}

// fmtMtopkGolden prints g as the literal of a want entry.
func fmtMtopkGolden(g mtopkGolden) string {
	s := "rdta: [][]Hit{\n"
	for _, hs := range g.rdta {
		s += "\t" + fmtHits(hs) + ",\n"
	}
	s += fmt.Sprintf("},\nrdtaStats: comm.Stats%+v,\ntopk: [][]Hit{\n", g.rdtaStats)
	for _, hs := range g.topk {
		s += "\t" + fmtHits(hs) + ",\n"
	}
	s += "},\ndta: []DTAResult{\n"
	for _, d := range g.dta {
		s += fmt.Sprintf("\t{Threshold: %v, K: %d, PrefixLens: %#v, Hits: %s, Rounds: %d, EstimatedHits: %v},\n",
			d.Threshold, d.K, d.PrefixLens, "[]Hit"+fmtHits(d.Hits), d.Rounds, d.EstimatedHits)
	}
	return s + fmt.Sprintf("},\ntopkStats: comm.Stats%+v", g.topkStats)
}

func fmtHits(hs []Hit) string {
	if hs == nil {
		return "nil"
	}
	s := "{"
	for i, h := range hs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%#x, %v}", h.ID, h.Score)
	}
	return s + "}"
}

// dtaProbedGolden is the DTAProbed golden's recorded outcome: every PE's
// DTAResult and the machine's meters.
type dtaProbedGolden struct {
	dta   []DTAResult
	stats comm.Stats
}

// TestDTAProbedGolden pins DTAProbed with three probes per round on the
// golden fixture at p ∈ {1, 3, 16}: every PE's DTAResult (threshold,
// depth, prefix lengths, hits, rounds, estimate) and all six meters, bit
// for bit. The lane selections' RNG draws, the probes' hit estimates and
// the depth the search stops at feed into these values.
func TestDTAProbedGolden(t *testing.T) {
	want := map[int]dtaProbedGolden{
		1: {
			dta: []DTAResult{
				{Threshold: 0.875, K: 16, PrefixLens: []int{30, 30, 27}, Hits: []Hit{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}, {0x8, 1.875}, {0x17, 1.875}, {0x1e, 1.875}, {0x1d, 1.75}, {0x1f, 1.75}, {0x23, 1.625}, {0x7, 1.5}, {0x3, 1.375}, {0x6, 1.375}, {0xe, 1.375}, {0x13, 1.375}, {0x14, 1.375}, {0x21, 1.375}, {0xa, 1.25}, {0xb, 1.25}, {0x12, 1.25}, {0x19, 1.25}, {0x24, 1.25}, {0xc, 1.125}, {0x1a, 1.125}, {0x20, 1.125}, {0x15, 1}, {0x2, 0.875}, {0x10, 0.875}, {0x22, 0.875}, {0x25, 0.875}}, Rounds: 1, EstimatedHits: 28.59375},
			},
			stats: comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0},
		},
		3: {
			dta: []DTAResult{
				{Threshold: 1.75, K: 32, PrefixLens: []int{20, 19, 13}, Hits: []Hit{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}, {0x8, 1.875}, {0x17, 1.875}, {0x1e, 1.875}, {0x1d, 1.75}, {0x1f, 1.75}}, Rounds: 1, EstimatedHits: 27.125},
				{Threshold: 1.75, K: 32, PrefixLens: []int{21, 20, 14}, Hits: []Hit{{0x100000025, 2.25}, {0x10000000e, 2.125}, {0x100000017, 2}, {0x10000001c, 2}, {0x10000000b, 1.75}, {0x100000013, 1.75}, {0x100000021, 1.75}, {0x100000022, 1.75}}, Rounds: 1, EstimatedHits: 27.125},
				{Threshold: 1.75, K: 32, PrefixLens: []int{19, 19, 7}, Hits: []Hit{{0x200000010, 2.25}, {0x200000003, 2.125}, {0x200000014, 2.125}, {0x200000000, 2}, {0x200000004, 1.875}, {0x200000006, 1.875}, {0x200000009, 1.875}, {0x20000000d, 1.875}, {0x200000015, 1.75}, {0x200000016, 1.75}}, Rounds: 1, EstimatedHits: 27.125},
			},
			stats: comm.Stats{TotalWords: 168, MaxSentWords: 84, MaxRecvWords: 84, TotalSends: 40, MaxSends: 20, MaxClock: 40168},
		},
		16: {
			dta: []DTAResult{
				{Threshold: 2, K: 128, PrefixLens: []int{16, 13, 13}, Hits: []Hit{{0x1, 2.25}, {0xd, 2.25}, {0x0, 2.125}, {0x1c, 2.125}, {0x27, 2.125}, {0x16, 2}, {0x18, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{15, 15, 14}, Hits: []Hit{{0x100000025, 2.25}, {0x10000000e, 2.125}, {0x100000017, 2}, {0x10000001c, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{9, 17, 7}, Hits: []Hit{{0x200000010, 2.25}, {0x200000003, 2.125}, {0x200000014, 2.125}, {0x200000000, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{22, 14, 6}, Hits: []Hit{{0x300000024, 2.25}, {0x30000000d, 2.125}, {0x30000001e, 2.125}, {0x30000001f, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{17, 13, 10}, Hits: []Hit{{0x400000013, 2.375}, {0x40000001d, 2.125}, {0x40000000f, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{10, 17, 7}, Hits: []Hit{{0x500000000, 2.125}, {0x500000022, 2.125}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{17, 18, 9}, Hits: []Hit{{0x600000010, 2.5}, {0x600000013, 2.25}, {0x60000001f, 2.25}, {0x60000000e, 2.125}, {0x600000018, 2.125}, {0x600000021, 2.125}, {0x600000006, 2}, {0x600000015, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{12, 19, 7}, Hits: []Hit{{0x700000011, 2.25}, {0x70000000c, 2}, {0x700000013, 2}, {0x70000001a, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{11, 11, 15}, Hits: []Hit{{0x80000000e, 2.125}, {0x800000013, 2.125}, {0x80000001f, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{16, 15, 9}, Hits: []Hit{{0x900000011, 2.25}, {0x90000001c, 2.125}, {0x900000021, 2.125}, {0x90000000c, 2}, {0x90000000f, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{19, 24, 11}, Hits: []Hit{{0xa0000001a, 2.5}, {0xa00000011, 2.125}, {0xa00000016, 2.125}, {0xa00000017, 2.125}, {0xa0000001d, 2.125}, {0xa00000026, 2.125}, {0xa00000015, 2}, {0xa00000020, 2}, {0xa00000025, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{15, 19, 15}, Hits: []Hit{{0xb00000007, 2.25}, {0xb00000027, 2.25}, {0xb00000014, 2.125}, {0xb00000026, 2.125}, {0xb00000017, 2}, {0xb0000001e, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{20, 8, 12}, Hits: []Hit{{0xc00000024, 2.625}, {0xc00000019, 2.25}, {0xc00000000, 2}, {0xc00000006, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{16, 14, 5}, Hits: []Hit{{0xd00000015, 2.375}, {0xd0000000a, 2.25}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{19, 13, 9}, Hits: []Hit{{0xe0000000d, 2.125}, {0xe00000016, 2.125}, {0xe00000021, 2.125}, {0xe00000026, 2.125}, {0xe0000000c, 2}, {0xe0000001b, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
				{Threshold: 2, K: 128, PrefixLens: []int{13, 19, 10}, Hits: []Hit{{0xf00000001, 2.25}, {0xf0000001c, 2.25}, {0xf00000012, 2.125}, {0xf00000015, 2.125}, {0xf0000001a, 2}}, Rounds: 2, EstimatedHits: 76.09311224489797},
			},
			stats: comm.Stats{TotalWords: 108852, MaxSentWords: 7148, MaxRecvWords: 7354, TotalSends: 16398, MaxSends: 1044, MaxClock: 2102238},
		},
	}
	const k, probes = 9, 3
	for _, p := range []int{1, 3, 16} {
		datas := goldenData(p)
		got := dtaProbedGolden{dta: make([]DTAResult, p)}
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			got.dta[r] = DTAProbed(pe, datas[r], SumScore, k, probes, xrand.NewPE(107, r))
		})
		got.stats = m.Stats()
		m.Close()
		if w := want[p]; !reflect.DeepEqual(got, w) {
			s := "dta: []DTAResult{\n"
			for _, d := range got.dta {
				s += fmt.Sprintf("\t{Threshold: %v, K: %d, PrefixLens: %#v, Hits: %s, Rounds: %d, EstimatedHits: %v},\n",
					d.Threshold, d.K, d.PrefixLens, "[]Hit"+fmtHits(d.Hits), d.Rounds, d.EstimatedHits)
			}
			t.Errorf("p=%d:\n got %s},\nstats: comm.Stats%+v", p, s, got.stats)
		}
	}
}
