package freq

import (
	"fmt"
	"math"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// freqGolden is one algorithm's recorded outcome on the golden fixture:
// rank 0's result (every PE holds the same one) and the machine's meters.
type freqGolden struct {
	items      [][2]int64 // key, count
	sampleSize int64
	rho        uint64 // math.Float64bits(Rho)
	kStar      int
	exact      bool
	stats      comm.Stats
}

func freqGoldenOf(res Result, s comm.Stats) freqGolden {
	g := freqGolden{sampleSize: res.SampleSize, rho: math.Float64bits(res.Rho), kStar: res.KStar, exact: res.Exact, stats: s}
	for _, it := range res.Items {
		g.items = append(g.items, [2]int64{int64(it.Key), it.Count})
	}
	return g
}

func (g freqGolden) String() string {
	return fmt.Sprintf("{%#v, %d, %#x, %d, %v, comm.Stats%+v}", g.items, g.sampleSize, g.rho, g.kStar, g.exact, g.stats)
}

func (g freqGolden) equal(h freqGolden) bool {
	if len(g.items) != len(h.items) {
		return false
	}
	for i := range g.items {
		if g.items[i] != h.items[i] {
			return false
		}
	}
	return g.sampleSize == h.sampleSize && g.rho == h.rho && g.kStar == h.kStar && g.exact == h.exact && g.stats == h.stats
}

// goldenAlgos are the golden fixture's algorithms; PAC also runs as a
// stepper under RunAsync and must reproduce the blocking record.
var goldenAlgos = []struct {
	name  string
	run   func(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result
	async func(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG, out func(Result)) comm.Stepper
}{
	{"PAC", PAC, PACStep},
	{"EC", EC, nil},
	{"ECSBF", ECSBF, nil},
	{"PEC", func(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
		return PEC(pe, local, p, 0.2, rng)
	}, nil},
	{"Naive", Naive, nil},
	{"NaiveTree", NaiveTree, nil},
}

// TestFreqResultsGolden pins every frequent-objects algorithm's result
// and meters on a fixed Zipf fixture, bit for bit: items, sample size,
// the bits of ρ, k*, exactness and all six Stats fields, at p ∈ {1, 3,
// 16}. The local counting kernel, the routed batches and the shard the
// selection reads may change form; none of these values may move with
// them.
func TestFreqResultsGolden(t *testing.T) {
	params := Params{K: 4, Eps: 0.1, Delta: 0.01}
	want := map[string]freqGolden{
		"p=1 PAC":        {[][2]int64{{1, 466}, {2, 204}, {3, 170}, {4, 118}}, 4000, 0x3ff0000000000000, 0, true, comm.Stats{}},
		"p=1 EC":         {[][2]int64{{1, 466}, {2, 204}, {3, 170}, {4, 118}}, 621, 0x3fc4a3853b9b27ad, 4, true, comm.Stats{}},
		"p=1 ECSBF":      {[][2]int64{{1, 466}, {2, 204}, {3, 170}, {4, 118}}, 617, 0x3fc4a3853b9b27ad, 4, true, comm.Stats{}},
		"p=1 PEC":        {[][2]int64{{1, 466}, {2, 204}, {3, 170}, {4, 118}}, 1353, 0x3fd56408af75bbd8, 19, true, comm.Stats{}},
		"p=1 Naive":      {[][2]int64{{1, 466}, {2, 204}, {3, 170}, {4, 118}}, 4000, 0x3ff0000000000000, 0, true, comm.Stats{}},
		"p=1 NaiveTree":  {[][2]int64{{1, 466}, {2, 204}, {3, 170}, {4, 118}}, 4000, 0x3ff0000000000000, 0, true, comm.Stats{}},
		"p=3 PAC":        {[][2]int64{{1, 1317}, {2, 586}, {3, 433}, {4, 343}}, 5279, 0x3fdc8560e9f24fcb, 0, false, comm.Stats{TotalWords: 4208, MaxSentWords: 1755, MaxRecvWords: 2443, TotalSends: 47, MaxSends: 23, MaxClock: 47200}},
		"p=3 EC":         {[][2]int64{{1, 1333}, {2, 626}, {3, 464}, {4, 367}}, 72, 0x3f78808f679318eb, 39, true, comm.Stats{TotalWords: 575, MaxSentWords: 251, MaxRecvWords: 278, TotalSends: 43, MaxSends: 21, MaxClock: 39529}},
		"p=3 ECSBF":      {[][2]int64{{1, 1333}, {2, 626}, {3, 464}, {4, 367}}, 68, 0x3f78808f679318eb, 39, true, comm.Stats{TotalWords: 687, MaxSentWords: 254, MaxRecvWords: 282, TotalSends: 32, MaxSends: 14, MaxClock: 28527}},
		"p=3 PEC":        {[][2]int64{{1, 1333}, {2, 626}, {3, 464}, {4, 367}}, 1352, 0x3fbc8560e9f24fcb, 21, true, comm.Stats{TotalWords: 1989, MaxSentWords: 859, MaxRecvWords: 1054, TotalSends: 59, MaxSends: 29, MaxClock: 56913}},
		"p=3 Naive":      {[][2]int64{{1, 1385}, {2, 642}, {3, 456}, {4, 366}}, 5373, 0x3fdc8560e9f24fcb, 0, false, comm.Stats{TotalWords: 2874, MaxSentWords: 1444, MaxRecvWords: 2854, TotalSends: 12, MaxSends: 6, MaxClock: 14874}},
		"p=3 NaiveTree":  {[][2]int64{{1, 1335}, {2, 619}, {3, 438}, {4, 372}}, 5297, 0x3fdc8560e9f24fcb, 0, false, comm.Stats{TotalWords: 2882, MaxSentWords: 1438, MaxRecvWords: 2862, TotalSends: 12, MaxSends: 6, MaxClock: 14882}},
		"p=16 PAC":       {[][2]int64{{1, 7324}, {2, 3854}, {3, 2310}, {4, 1771}}, 5304, 0x3fb56408af75bbd8, 0, false, comm.Stats{TotalWords: 10985, MaxSentWords: 759, MaxRecvWords: 732, TotalSends: 538, MaxSends: 41, MaxClock: 82558}},
		"p=16 EC":        {[][2]int64{{1, 7192}, {2, 3595}, {3, 2395}, {4, 1810}}, 123, 0x3f5ca8328d07c58f, 28, true, comm.Stats{TotalWords: 4743, MaxSentWords: 425, MaxRecvWords: 515, TotalSends: 726, MaxSends: 57, MaxClock: 113909}},
		"p=16 ECSBF":     {[][2]int64{{1, 7192}, {2, 3595}, {3, 2395}, {4, 1810}}, 110, 0x3f5ca8328d07c58f, 28, true, comm.Stats{TotalWords: 6883, MaxSentWords: 550, MaxRecvWords: 517, TotalSends: 636, MaxSends: 45, MaxClock: 90032}},
		"p=16 PEC":       {[][2]int64{{1, 7192}, {2, 3595}, {3, 2395}, {4, 1810}}, 1346, 0x3f956408af75bbd8, 14, true, comm.Stats{TotalWords: 8823, MaxSentWords: 737, MaxRecvWords: 924, TotalSends: 1004, MaxSends: 85, MaxClock: 170652}},
		"p=16 Naive":     {[][2]int64{{1, 6881}, {2, 3614}, {3, 2537}, {4, 1759}}, 5335, 0x3fb56408af75bbd8, 0, false, comm.Stats{TotalWords: 5984, MaxSentWords: 444, MaxRecvWords: 5744, TotalSends: 158, MaxSends: 12, MaxClock: 40784}},
		"p=16 NaiveTree": {[][2]int64{{1, 7217}, {2, 3351}, {3, 2058}, {4, 1843}}, 5316, 0x3fb56408af75bbd8, 0, false, comm.Stats{TotalWords: 10480, MaxSentWords: 2020, MaxRecvWords: 4168, TotalSends: 158, MaxSends: 12, MaxClock: 28366}},
	}
	for _, p := range []int{1, 3, 16} {
		locals, _ := zipfWorkload(47, p, 4000, 1<<12)
		for ai, a := range goldenAlgos {
			forms := []string{"blocking"}
			if a.async != nil {
				forms = append(forms, "async")
			}
			for _, form := range forms {
				name := fmt.Sprintf("p=%d %s", p, a.name)
				seed := int64(101 + ai)
				res := make([]Result, p)
				m := comm.NewMachine(comm.DefaultConfig(p))
				if form == "blocking" {
					m.MustRun(func(pe *comm.PE) {
						r := pe.Rank()
						res[r] = a.run(pe, locals[r], params, xrand.NewPE(seed, r))
					})
				} else {
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						r := pe.Rank()
						return a.async(pe, locals[r], params, xrand.NewPE(seed, r), func(v Result) { res[r] = v })
					})
				}
				got := freqGoldenOf(res[0], m.Stats())
				m.Close()
				if w, ok := want[name]; !ok || !got.equal(w) {
					t.Errorf("%s %s:\n got %v\nwant %v", name, form, got, w)
				}
			}
		}
	}
}
