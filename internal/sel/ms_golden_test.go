package sel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// msGolden is a golden fixture's recorded outcome: every PE's log of what
// each selection returned to it, and the machine's meters.
type msGolden struct {
	pes   []string
	stats comm.Stats
}

// msGoldenShards is the fixture of the multisequence goldens: 40p + 13
// globally unique keys, PE r holding a share that grows with r, each
// share ascending.
func msGoldenShards(p int) [][]uint64 {
	global, _ := globalSorted(xrand.New(int64(70+p)), 40*p+13)
	parts := distribute(global, p)
	for _, part := range parts {
		slices.Sort(part)
	}
	return parts
}

func checkMSGolden(t *testing.T, name string, p int, got, want msGolden) {
	t.Helper()
	if slices.Equal(got.pes, want.pes) && got.stats == want.stats {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d: {\n\tpes: []string{\n", p)
	for _, s := range got.pes {
		fmt.Fprintf(&b, "\t\t%q,\n", s)
	}
	fmt.Fprintf(&b, "\t},\n\tstats: comm.Stats%+v,\n},", got.stats)
	t.Errorf("%s p=%d differs from its recording; got\n%s", name, p, b.String())
}

// TestMSSelectGolden pins MSSelect at p ∈ {1, 3, 16}: the selected key
// and every PE's local count at k = 1, 2, n/3, n/2, n − 1 and n, one
// after another on one shared stream, every second selection on a Seq
// that is not a SliceSeq (its prefix is copied), and all six meters of
// the run, bit for bit.
func TestMSSelectGolden(t *testing.T) {
	want := map[int]msGolden{
		1: {
			pes: []string{
				"10/1 13/2 124/17 199/26 402/52 403/53",
			},
		},
		3: {
			pes: []string{
				"8/0 30/0 428/6 566/8 1058/22 1062/22",
				"8/0 30/1 428/16 566/26 1058/43 1062/44",
				"8/1 30/1 428/22 566/32 1058/67 1062/67",
			},
			stats: comm.Stats{TotalWords: 519, MaxSentWords: 232, MaxRecvWords: 399, TotalSends: 72, MaxSends: 36, MaxClock: 72519},
		},
		16: {
			pes: []string{
				"0/0 4/0 1625/2 2537/3 5214/4 5222/4",
				"0/0 4/0 1625/2 2537/5 5214/9 5222/9",
				"0/0 4/0 1625/3 2537/9 5214/14 5222/14",
				"0/0 4/0 1625/5 2537/9 5214/19 5222/19",
				"0/0 4/0 1625/4 2537/8 5214/24 5222/24",
				"0/0 4/0 1625/11 2537/14 5214/28 5222/28",
				"0/0 4/0 1625/9 2537/13 5214/33 5222/33",
				"0/0 4/0 1625/20 2537/24 5214/38 5222/38",
				"0/0 4/0 1625/15 2537/23 5214/43 5222/43",
				"0/0 4/0 1625/15 2537/23 5214/48 5222/48",
				"0/0 4/0 1625/11 2537/26 5214/52 5222/52",
				"0/0 4/1 1625/19 2537/26 5214/57 5222/57",
				"0/0 4/0 1625/19 2537/27 5214/62 5222/62",
				"0/1 4/1 1625/28 2537/37 5214/67 5222/67",
				"0/0 4/0 1625/27 2537/41 5214/71 5222/72",
				"0/0 4/0 1625/27 2537/38 5214/83 5222/83",
			},
			stats: comm.Stats{TotalWords: 3776, MaxSentWords: 803, MaxRecvWords: 895, TotalSends: 838, MaxSends: 80, MaxClock: 161625},
		},
	}
	for _, p := range []int{1, 3, 16} {
		parts := msGoldenShards(p)
		n := int64(40*p + 13)
		got := msGolden{pes: make([]string, p)}
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			shared := xrand.New(9)
			var log strings.Builder
			for i, k := range []int64{1, 2, n / 3, n / 2, n - 1, n} {
				var s Seq[uint64] = SliceSeq[uint64](parts[r])
				if i%2 == 1 {
					s = opaqueSeq{parts[r]}
				}
				v, le := MSSelect(pe, s, k, shared)
				fmt.Fprintf(&log, "%d/%d ", v, le)
			}
			got.pes[r] = strings.TrimSpace(log.String())
		})
		got.stats = m.Stats()
		m.Close()
		checkMSGolden(t, "MSSelect", p, got, want[p])
	}
}

// TestAMSSelectBatchedGolden pins AMSSelectBatched with d = 4 at
// p ∈ {1, 3, 16}: every PE's threshold, count, local length and rounds
// for six intervals on unique keys, drawn one after another from one
// per-PE stream, then a tight interval on a two-value input that no
// flexible round can land in, so it ends in the exact fallback after
// amsMaxRounds; and all six meters of the run, bit for bit.
func TestAMSSelectBatchedGolden(t *testing.T) {
	want := map[int]msGolden{
		1: {
			pes: []string{
				"10/1/1/1 129/19/19/2 127/18/18/3 391/50/50/1 199/26/26/2 403/53/53/1 0/10/15/60",
			},
		},
		3: {
			pes: []string{
				"8/1/0/1 494/55/6/1 428/44/6/2 1022/124/21/1 566/66/8/3 1062/133/22/1 0/30/15/60",
				"8/1/0/1 494/55/22/1 428/44/16/2 1022/124/42/1 566/66/26/3 1062/133/44/1 0/30/15/60",
				"8/1/1/1 494/55/27/1 428/44/22/2 1022/124/61/1 566/66/32/3 1062/133/67/1 0/30/15/60",
			},
			stats: comm.Stats{TotalWords: 3348, MaxSentWords: 1662, MaxRecvWords: 1686, TotalSends: 584, MaxSends: 292, MaxClock: 587348},
		},
		16: {
			pes: []string{
				"0/1/0/1 1821/242/2/2 1665/219/2/3 5200/648/4/1 2537/326/3/5 5222/653/4/1 0/160/15/60",
				"0/1/0/1 1821/242/3/2 1665/219/2/3 5200/648/9/1 2537/326/5/5 5222/653/9/1 0/160/15/60",
				"0/1/0/1 1821/242/3/2 1665/219/3/3 5200/648/13/1 2537/326/9/5 5222/653/14/1 0/160/15/60",
				"0/1/0/1 1821/242/5/2 1665/219/5/3 5200/648/19/1 2537/326/9/5 5222/653/19/1 0/160/15/60",
				"0/1/0/1 1821/242/5/2 1665/219/4/3 5200/648/24/1 2537/326/8/5 5222/653/24/1 0/160/15/60",
				"0/1/0/1 1821/242/12/2 1665/219/11/3 5200/648/28/1 2537/326/14/5 5222/653/28/1 0/160/15/60",
				"0/1/0/1 1821/242/10/2 1665/219/9/3 5200/648/33/1 2537/326/13/5 5222/653/33/1 0/160/15/60",
				"0/1/0/1 1821/242/20/2 1665/219/20/3 5200/648/38/1 2537/326/24/5 5222/653/38/1 0/160/15/60",
				"0/1/0/1 1821/242/18/2 1665/219/15/3 5200/648/43/1 2537/326/23/5 5222/653/43/1 0/160/15/60",
				"0/1/0/1 1821/242/18/2 1665/219/15/3 5200/648/48/1 2537/326/23/5 5222/653/48/1 0/160/15/60",
				"0/1/0/1 1821/242/17/2 1665/219/12/3 5200/648/51/1 2537/326/26/5 5222/653/52/1 0/160/15/60",
				"0/1/0/1 1821/242/19/2 1665/219/19/3 5200/648/57/1 2537/326/26/5 5222/653/57/1 0/160/15/60",
				"0/1/0/1 1821/242/20/2 1665/219/19/3 5200/648/62/1 2537/326/27/5 5222/653/62/1 0/160/15/60",
				"0/1/1/1 1821/242/31/2 1665/219/28/3 5200/648/67/1 2537/326/37/5 5222/653/67/1 0/160/15/60",
				"0/1/0/1 1821/242/31/2 1665/219/27/3 5200/648/69/1 2537/326/41/5 5222/653/72/1 0/160/15/60",
				"0/1/0/1 1821/242/28/2 1665/219/28/3 5200/648/83/1 2537/326/38/5 5222/653/83/1 0/160/15/60",
			},
			stats: comm.Stats{TotalWords: 56504, MaxSentWords: 3619, MaxRecvWords: 3684, TotalSends: 9852, MaxSends: 620, MaxClock: 1247228},
		},
	}
	for _, p := range []int{1, 3, 16} {
		parts := msGoldenShards(p)
		n := int64(40*p + 13)
		got := msGolden{pes: make([]string, p)}
		rounds := make([]int, p)
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			rng := xrand.NewPE(83, r)
			var log strings.Builder
			put := func(res AMSResult[uint64]) {
				fmt.Fprintf(&log, "%d/%d/%d/%d ", res.Threshold, res.Count, res.LocalLen, res.Rounds)
			}
			for _, kr := range [][2]int64{{1, 1}, {n / 4, n / 2}, {n / 3, n/3 + 2}, {n - 9, n - 3}, {n / 2, n / 2}, {n, 2 * n}} {
				put(AMSSelectBatched[uint64](pe, SliceSeq[uint64](parts[r]), kr[0], kr[1], 4, rng))
			}
			two := make(SliceSeq[uint64], 30)
			for i := 15; i < len(two); i++ {
				two[i] = 1
			}
			res := AMSSelectBatched[uint64](pe, two, int64(10*p), int64(10*p), 4, rng)
			put(res)
			rounds[r] = res.Rounds
			got.pes[r] = strings.TrimSpace(log.String())
		})
		got.stats = m.Stats()
		m.Close()
		if rounds[0] != amsMaxRounds {
			t.Errorf("p=%d: the two-value selection took %d rounds, not the fallback's %d", p, rounds[0], amsMaxRounds)
		}
		checkMSGolden(t, "AMSSelectBatched", p, got, want[p])
	}
}
