package agg

import (
	"fmt"
	"math"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// aggGolden is one algorithm's recorded outcome on the golden fixture:
// rank 0's result (every PE holds the same one) and the machine's meters.
type aggGolden struct {
	items      [][2]uint64 // key, math.Float64bits(sum)
	sampleSize int64
	vavg       uint64 // math.Float64bits(VAvg)
	kStar      int
	stats      comm.Stats
}

func goldenOf(res Result, s comm.Stats) aggGolden {
	g := aggGolden{sampleSize: res.SampleSize, vavg: math.Float64bits(res.VAvg), kStar: res.KStar, stats: s}
	for _, it := range res.Items {
		g.items = append(g.items, [2]uint64{it.Key, math.Float64bits(it.Sum)})
	}
	return g
}

func (g aggGolden) String() string {
	return fmt.Sprintf("items %v sample %d vavg %#x k* %d stats %+v", g.items, g.sampleSize, g.vavg, g.kStar, g.stats)
}

func (g aggGolden) equal(h aggGolden) bool {
	if len(g.items) != len(h.items) {
		return false
	}
	for i := range g.items {
		if g.items[i] != h.items[i] {
			return false
		}
	}
	return g.sampleSize == h.sampleSize && g.vavg == h.vavg && g.kStar == h.kStar && g.stats == h.stats
}

// TestAggResultsGolden pins PAC's and ECSum's results and meters on a
// fixed Zipf fixture, bit for bit. The results were recorded from the SumTable-based local
// aggregation; any kernel behind LocalAggregate must reproduce them: the
// same per-key sums, the same key order for the Bernoulli draws, the same
// routed batches. The meters are those of a shard read in ascending key
// order, the order the top-k selection samples its pivots in.
func TestAggResultsGolden(t *testing.T) {
	params := Params{K: 4, Eps: 0.02, Delta: 0.01}
	for _, c := range []struct {
		p       int
		pac, ec aggGolden
	}{
		{p: 1,
			pac: aggGolden{[][2]uint64{{1, 4640180111066636197}, {2, 4635249647546237429}, {3, 4631172911811895205}, {4, 4631172911811895205}},
				247, 0x401843afeb61db06, 0, comm.Stats{}},
			ec: aggGolden{[][2]uint64{{1, 4640303412641822388}, {2, 4635200157518482540}, {3, 4631683369318759605}, {4, 4631077679875763308}},
				131, 0x402843afeb61db06, 4, comm.Stats{}}},
		{p: 3,
			pac: aggGolden{[][2]uint64{{1, 4647157779613800380}, {2, 4642302089843838655}, {3, 4640541639130882509}, {5, 4638150580359059388}},
				428, 0x40240395fe0c8fd3, 0, comm.Stats{TotalWords: 727, MaxSentWords: 321, MaxRecvWords: 396, TotalSends: 47, MaxSends: 23, MaxClock: 43719}},
			ec: aggGolden{[][2]uint64{{1, 4647143220256111899}, {2, 4642209643731395246}, {6, 4634958238798876460}, {9, 4634320860105673323}},
				35, 0x40610f46542bfa8a, 186, comm.Stats{TotalWords: 360, MaxSentWords: 158, MaxRecvWords: 162, TotalSends: 30, MaxSends: 14, MaxClock: 28322}}},
		{p: 16,
			pac: aggGolden{[][2]uint64{{1, 4658011423645061562}, {2, 4653127954603177020}, {3, 4651568342938290377}, {4, 4649099191743949081}},
				1089, 0x403597d3d835d7d8, 0, comm.Stats{TotalWords: 4081, MaxSentWords: 322, MaxRecvWords: 336, TotalSends: 602, MaxSends: 45, MaxClock: 89699}},
			ec: aggGolden{[][2]uint64{{1, 4657860566624763017}, {2, 4653336481691716428}, {3, 4651557418811112412}, {4, 4649179659086209943}},
				106, 0x406f7a1fc4074c42, 136, comm.Stats{TotalWords: 5868, MaxSentWords: 394, MaxRecvWords: 374, TotalSends: 512, MaxSends: 32, MaxClock: 64764}}},
	} {
		keys, vals, _ := workload(43, c.p, 1500, 1<<12)
		for _, exact := range []bool{false, true} {
			name := fmt.Sprintf("p=%d exact=%v", c.p, exact)
			res := make([]Result, c.p)
			m := comm.NewMachine(comm.DefaultConfig(c.p))
			m.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				if exact {
					res[r] = ECSum(pe, keys[r], vals[r], params, xrand.NewPE(67, r))
				} else {
					res[r] = PAC(pe, keys[r], vals[r], params, xrand.NewPE(61, r))
				}
			})
			got := goldenOf(res[0], m.Stats())
			m.Close()
			want := c.pac
			if exact {
				want = c.ec
			}
			if !got.equal(want) {
				t.Errorf("%s:\n got %v\nwant %v", name, got, want)
			}
		}
	}
}
