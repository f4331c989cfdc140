package sel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// kthGoldenRow is one recorded selection: the answer (every PE's) and the
// machine's six meters.
type kthGoldenRow struct {
	name  string
	res   uint64
	stats comm.Stats
}

// kthGoldenForms are the four entries to Algorithm 1 the golden pins:
// the blocking one-shot Kth, its stepper KthStep under RunAsync, and
// KthSortedStep on the whole sorted shard and on a window of it with the
// window's global size.
var kthGoldenForms = []string{"Kth", "KthStep", "KthSorted", "KthSortedWindow"}

// kthGoldenShards builds the golden's p shards: "random" holds unique
// keys w.h.p., "ties" draws half of its keys from one value and the rest
// from eight, so levels tie on a pivot and peel tie groups.
func kthGoldenShards(p int, shape string) [][]uint64 {
	shards := make([][]uint64, p)
	for r := range shards {
		rng := xrand.NewPE(int64(len(shape)), r)
		shards[r] = make([]uint64, 64+r%5)
		for i := range shards[r] {
			switch {
			case shape == "random":
				shards[r][i] = rng.Uint64()
			case rng.Intn(2) == 0:
				shards[r][i] = 1 << 40
			default:
				shards[r][i] = uint64(rng.Intn(8)) << 38
			}
		}
	}
	return shards
}

// runKthGolden runs one selection in form on shards (each ascending for
// the sorted forms) and returns every PE's answer and the meters.
func runKthGolden(t *testing.T, p int, form string, shards [][]uint64, n, k int64) ([]uint64, comm.Stats) {
	t.Helper()
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	res := make([]uint64, p)
	rng := func(pe *comm.PE) *xrand.RNG { return xrand.NewPE(k+int64(p), pe.Rank()) }
	var err error
	switch form {
	case "Kth":
		err = m.Run(func(pe *comm.PE) { res[pe.Rank()] = Kth(pe, shards[pe.Rank()], k, rng(pe)) })
	case "KthStep":
		err = m.RunAsync(func(pe *comm.PE) comm.Stepper {
			return KthStep(pe, shards[pe.Rank()], k, rng(pe), func(v uint64) { res[pe.Rank()] = v })
		})
	default:
		err = m.RunAsync(func(pe *comm.PE) comm.Stepper {
			return KthSortedStep(pe, shards[pe.Rank()], n, k, rng(pe), func(v uint64) { res[pe.Rank()] = v })
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Stats()
}

// TestKthGolden pins Algorithm 1's one-lane path: at p ∈ {1, 3, 16, 64},
// on random and tie-heavy shards, ranks 1, 2, n/2 and n of Kth, KthStep
// and KthSortedStep (whole sorted shards, and windows of them with the
// windows' n), every PE's answer and all six meters, bit for bit. It logs
// how often each branch of a level ran over the fixture (the k = 1 base
// case, a tie on equal pivots, a tie peel, a speculation miss), so that
// every branch is known to be pinned.
func TestKthGolden(t *testing.T) {
	var got []kthGoldenRow
	var br kthBranchCount
	for _, p := range []int{1, 3, 16, 64} {
		for _, shape := range []string{"random", "ties"} {
			shards := kthGoldenShards(p, shape)
			for _, form := range kthGoldenForms {
				in := shards
				if form != "Kth" && form != "KthStep" {
					in = make([][]uint64, p)
					for r, sh := range shards {
						in[r] = slices.Sorted(slices.Values(sh))
						if form == "KthSortedWindow" {
							in[r] = in[r][len(sh)/4 : len(sh)-len(sh)/5]
						}
					}
				}
				var union []uint64
				for _, sh := range in {
					union = append(union, sh...)
				}
				slices.Sort(union)
				n := int64(len(union))
				for _, k := range []int64{1, 2, n / 2, n} {
					name := fmt.Sprintf("p=%d %s %s k=%d", p, shape, form, k)
					res, stats := runKthGolden(t, p, form, in, n, k)
					for r, v := range res {
						if v != union[k-1] {
							t.Errorf("%s: PE %d answered %d, want %d", name, r, v, union[k-1])
						}
					}
					got = append(got, kthGoldenRow{name, res[0], stats})
					br.add(countKthBranches(p, form != "Kth" && form != "KthStep", in, n, k, k+int64(p)))
				}
			}
		}
	}
	t.Logf("branches over the fixture: %+v", br)
	if len(got) != len(kthGolden) {
		t.Fatalf("%d rows, %d recorded:\n%s", len(got), len(kthGolden), fmtKthGolden(got))
	}
	bad := false
	for i := range got {
		if got[i] != kthGolden[i] {
			bad = true
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].name, got[i], kthGolden[i])
		}
	}
	if bad {
		t.Logf("recorded rows of this run:\n%s", fmtKthGolden(got))
	}
}

// fmtKthGolden prints rows as the literal of kthGolden.
func fmtKthGolden(rows []kthGoldenRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "\t{%q, %d, comm.Stats{TotalWords: %d, MaxSentWords: %d, MaxRecvWords: %d, TotalSends: %d, MaxSends: %d, MaxClock: %v}},\n",
			r.name, r.res, r.stats.TotalWords, r.stats.MaxSentWords, r.stats.MaxRecvWords, r.stats.TotalSends, r.stats.MaxSends, r.stats.MaxClock)
	}
	return b.String()
}

// kthGolden is the recorded outcome, in the loop order of TestKthGolden.
var kthGolden = []kthGoldenRow{
	{"p=1 random Kth k=1", 4289091276862506, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random Kth k=2", 126111135268129473, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random Kth k=32", 8292700043384667797, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random Kth k=64", 18191626500369404152, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthStep k=1", 4289091276862506, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthStep k=2", 126111135268129473, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthStep k=32", 8292700043384667797, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthStep k=64", 18191626500369404152, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSorted k=1", 4289091276862506, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSorted k=2", 126111135268129473, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSorted k=32", 8292700043384667797, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSorted k=64", 18191626500369404152, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSortedWindow k=1", 3904652934285635955, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSortedWindow k=2", 4644772279460747185, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSortedWindow k=18", 8493460151395233855, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 random KthSortedWindow k=36", 15125708733010767244, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties Kth k=1", 0, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties Kth k=2", 0, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties Kth k=32", 1099511627776, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties Kth k=64", 1924145348608, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthStep k=1", 0, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthStep k=2", 0, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthStep k=32", 1099511627776, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthStep k=64", 1924145348608, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSorted k=1", 0, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSorted k=2", 0, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSorted k=32", 1099511627776, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSorted k=64", 1924145348608, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSortedWindow k=1", 1099511627776, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSortedWindow k=2", 1099511627776, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSortedWindow k=18", 1099511627776, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=1 ties KthSortedWindow k=36", 1099511627776, comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0}},
	{"p=3 random Kth k=1", 4289091276862506, comm.Stats{TotalWords: 12, MaxSentWords: 6, MaxRecvWords: 6, TotalSends: 8, MaxSends: 4, MaxClock: 8012}},
	{"p=3 random Kth k=2", 126111135268129473, comm.Stats{TotalWords: 94, MaxSentWords: 37, MaxRecvWords: 62, TotalSends: 16, MaxSends: 8, MaxClock: 16094}},
	{"p=3 random Kth k=97", 8221551915331443256, comm.Stats{TotalWords: 154, MaxSentWords: 58, MaxRecvWords: 112, TotalSends: 20, MaxSends: 10, MaxClock: 20154}},
	{"p=3 random Kth k=195", 18290969179031012640, comm.Stats{TotalWords: 101, MaxSentWords: 46, MaxRecvWords: 69, TotalSends: 16, MaxSends: 8, MaxClock: 16101}},
	{"p=3 random KthStep k=1", 4289091276862506, comm.Stats{TotalWords: 12, MaxSentWords: 6, MaxRecvWords: 6, TotalSends: 8, MaxSends: 4, MaxClock: 8012}},
	{"p=3 random KthStep k=2", 126111135268129473, comm.Stats{TotalWords: 94, MaxSentWords: 37, MaxRecvWords: 62, TotalSends: 16, MaxSends: 8, MaxClock: 16094}},
	{"p=3 random KthStep k=97", 8221551915331443256, comm.Stats{TotalWords: 154, MaxSentWords: 58, MaxRecvWords: 112, TotalSends: 20, MaxSends: 10, MaxClock: 20154}},
	{"p=3 random KthStep k=195", 18290969179031012640, comm.Stats{TotalWords: 101, MaxSentWords: 46, MaxRecvWords: 69, TotalSends: 16, MaxSends: 8, MaxClock: 16101}},
	{"p=3 random KthSorted k=1", 4289091276862506, comm.Stats{TotalWords: 8, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 4, MaxSends: 2, MaxClock: 4008}},
	{"p=3 random KthSorted k=2", 126111135268129473, comm.Stats{TotalWords: 94, MaxSentWords: 40, MaxRecvWords: 74, TotalSends: 8, MaxSends: 4, MaxClock: 8094}},
	{"p=3 random KthSorted k=97", 8221551915331443256, comm.Stats{TotalWords: 118, MaxSentWords: 51, MaxRecvWords: 98, TotalSends: 8, MaxSends: 4, MaxClock: 8118}},
	{"p=3 random KthSorted k=195", 18290969179031012640, comm.Stats{TotalWords: 99, MaxSentWords: 45, MaxRecvWords: 79, TotalSends: 8, MaxSends: 4, MaxClock: 8099}},
	{"p=3 random KthSortedWindow k=1", 3553678328833628464, comm.Stats{TotalWords: 8, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 4, MaxSends: 2, MaxClock: 4008}},
	{"p=3 random KthSortedWindow k=2", 3561045436166116171, comm.Stats{TotalWords: 102, MaxSentWords: 43, MaxRecvWords: 72, TotalSends: 12, MaxSends: 6, MaxClock: 12102}},
	{"p=3 random KthSortedWindow k=54", 8481947670604340893, comm.Stats{TotalWords: 100, MaxSentWords: 42, MaxRecvWords: 80, TotalSends: 8, MaxSends: 4, MaxClock: 8100}},
	{"p=3 random KthSortedWindow k=109", 16360485062808659875, comm.Stats{TotalWords: 82, MaxSentWords: 36, MaxRecvWords: 62, TotalSends: 8, MaxSends: 4, MaxClock: 8082}},
	{"p=3 ties Kth k=1", 0, comm.Stats{TotalWords: 12, MaxSentWords: 6, MaxRecvWords: 6, TotalSends: 8, MaxSends: 4, MaxClock: 8012}},
	{"p=3 ties Kth k=2", 0, comm.Stats{TotalWords: 159, MaxSentWords: 60, MaxRecvWords: 117, TotalSends: 20, MaxSends: 10, MaxClock: 20159}},
	{"p=3 ties Kth k=97", 1099511627776, comm.Stats{TotalWords: 131, MaxSentWords: 51, MaxRecvWords: 99, TotalSends: 16, MaxSends: 8, MaxClock: 16131}},
	{"p=3 ties Kth k=195", 1924145348608, comm.Stats{TotalWords: 118, MaxSentWords: 52, MaxRecvWords: 86, TotalSends: 16, MaxSends: 8, MaxClock: 16118}},
	{"p=3 ties KthStep k=1", 0, comm.Stats{TotalWords: 12, MaxSentWords: 6, MaxRecvWords: 6, TotalSends: 8, MaxSends: 4, MaxClock: 8012}},
	{"p=3 ties KthStep k=2", 0, comm.Stats{TotalWords: 159, MaxSentWords: 60, MaxRecvWords: 117, TotalSends: 20, MaxSends: 10, MaxClock: 20159}},
	{"p=3 ties KthStep k=97", 1099511627776, comm.Stats{TotalWords: 131, MaxSentWords: 51, MaxRecvWords: 99, TotalSends: 16, MaxSends: 8, MaxClock: 16131}},
	{"p=3 ties KthStep k=195", 1924145348608, comm.Stats{TotalWords: 118, MaxSentWords: 52, MaxRecvWords: 86, TotalSends: 16, MaxSends: 8, MaxClock: 16118}},
	{"p=3 ties KthSorted k=1", 0, comm.Stats{TotalWords: 8, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 4, MaxSends: 2, MaxClock: 4008}},
	{"p=3 ties KthSorted k=2", 0, comm.Stats{TotalWords: 95, MaxSentWords: 39, MaxRecvWords: 75, TotalSends: 8, MaxSends: 4, MaxClock: 8095}},
	{"p=3 ties KthSorted k=97", 1099511627776, comm.Stats{TotalWords: 141, MaxSentWords: 64, MaxRecvWords: 121, TotalSends: 8, MaxSends: 4, MaxClock: 8141}},
	{"p=3 ties KthSorted k=195", 1924145348608, comm.Stats{TotalWords: 105, MaxSentWords: 47, MaxRecvWords: 85, TotalSends: 8, MaxSends: 4, MaxClock: 8105}},
	{"p=3 ties KthSortedWindow k=1", 824633720832, comm.Stats{TotalWords: 8, MaxSentWords: 4, MaxRecvWords: 4, TotalSends: 4, MaxSends: 2, MaxClock: 4008}},
	{"p=3 ties KthSortedWindow k=2", 824633720832, comm.Stats{TotalWords: 193, MaxSentWords: 85, MaxRecvWords: 161, TotalSends: 16, MaxSends: 8, MaxClock: 16193}},
	{"p=3 ties KthSortedWindow k=54", 1099511627776, comm.Stats{TotalWords: 136, MaxSentWords: 59, MaxRecvWords: 116, TotalSends: 8, MaxSends: 4, MaxClock: 8136}},
	{"p=3 ties KthSortedWindow k=109", 1649267441664, comm.Stats{TotalWords: 152, MaxSentWords: 64, MaxRecvWords: 122, TotalSends: 12, MaxSends: 6, MaxClock: 12152}},
	{"p=16 random Kth k=1", 885527211292733, comm.Stats{TotalWords: 192, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 128, MaxSends: 8, MaxClock: 16024}},
	{"p=16 random Kth k=2", 4289091276862506, comm.Stats{TotalWords: 589, MaxSentWords: 105, MaxRecvWords: 124, TotalSends: 154, MaxSends: 16, MaxClock: 32204}},
	{"p=16 random Kth k=527", 9481042834699396680, comm.Stats{TotalWords: 1219, MaxSentWords: 216, MaxRecvWords: 296, TotalSends: 244, MaxSends: 28, MaxClock: 56455}},
	{"p=16 random Kth k=1054", 18427748731698570734, comm.Stats{TotalWords: 602, MaxSentWords: 105, MaxRecvWords: 129, TotalSends: 154, MaxSends: 16, MaxClock: 32207}},
	{"p=16 random KthStep k=1", 885527211292733, comm.Stats{TotalWords: 192, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 128, MaxSends: 8, MaxClock: 16024}},
	{"p=16 random KthStep k=2", 4289091276862506, comm.Stats{TotalWords: 589, MaxSentWords: 105, MaxRecvWords: 124, TotalSends: 154, MaxSends: 16, MaxClock: 32204}},
	{"p=16 random KthStep k=527", 9481042834699396680, comm.Stats{TotalWords: 1219, MaxSentWords: 216, MaxRecvWords: 296, TotalSends: 244, MaxSends: 28, MaxClock: 56455}},
	{"p=16 random KthStep k=1054", 18427748731698570734, comm.Stats{TotalWords: 602, MaxSentWords: 105, MaxRecvWords: 129, TotalSends: 154, MaxSends: 16, MaxClock: 32207}},
	{"p=16 random KthSorted k=1", 885527211292733, comm.Stats{TotalWords: 128, MaxSentWords: 8, MaxRecvWords: 8, TotalSends: 64, MaxSends: 4, MaxClock: 8016}},
	{"p=16 random KthSorted k=2", 4289091276862506, comm.Stats{TotalWords: 667, MaxSentWords: 136, MaxRecvWords: 194, TotalSends: 90, MaxSends: 12, MaxClock: 24274}},
	{"p=16 random KthSorted k=527", 9481042834699396680, comm.Stats{TotalWords: 1102, MaxSentWords: 227, MaxRecvWords: 352, TotalSends: 120, MaxSends: 16, MaxClock: 32465}},
	{"p=16 random KthSorted k=1054", 18427748731698570734, comm.Stats{TotalWords: 600, MaxSentWords: 117, MaxRecvWords: 161, TotalSends: 90, MaxSends: 12, MaxClock: 24232}},
	{"p=16 random KthSortedWindow k=1", 3259571755701677775, comm.Stats{TotalWords: 128, MaxSentWords: 8, MaxRecvWords: 8, TotalSends: 64, MaxSends: 4, MaxClock: 8016}},
	{"p=16 random KthSortedWindow k=2", 3283334515027749284, comm.Stats{TotalWords: 601, MaxSentWords: 130, MaxRecvWords: 168, TotalSends: 90, MaxSends: 12, MaxClock: 24248}},
	{"p=16 random KthSortedWindow k=295", 9955537822100235952, comm.Stats{TotalWords: 717, MaxSentWords: 139, MaxRecvWords: 213, TotalSends: 90, MaxSends: 12, MaxClock: 24300}},
	{"p=16 random KthSortedWindow k=591", 16586041752243213994, comm.Stats{TotalWords: 547, MaxSentWords: 108, MaxRecvWords: 134, TotalSends: 90, MaxSends: 12, MaxClock: 24211}},
	{"p=16 ties Kth k=1", 0, comm.Stats{TotalWords: 192, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 128, MaxSends: 8, MaxClock: 16024}},
	{"p=16 ties Kth k=2", 0, comm.Stats{TotalWords: 839, MaxSentWords: 160, MaxRecvWords: 209, TotalSends: 184, MaxSends: 20, MaxClock: 40307}},
	{"p=16 ties Kth k=527", 1099511627776, comm.Stats{TotalWords: 673, MaxSentWords: 126, MaxRecvWords: 165, TotalSends: 154, MaxSends: 16, MaxClock: 32240}},
	{"p=16 ties Kth k=1054", 1924145348608, comm.Stats{TotalWords: 622, MaxSentWords: 105, MaxRecvWords: 141, TotalSends: 154, MaxSends: 16, MaxClock: 32216}},
	{"p=16 ties KthStep k=1", 0, comm.Stats{TotalWords: 192, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 128, MaxSends: 8, MaxClock: 16024}},
	{"p=16 ties KthStep k=2", 0, comm.Stats{TotalWords: 839, MaxSentWords: 160, MaxRecvWords: 209, TotalSends: 184, MaxSends: 20, MaxClock: 40307}},
	{"p=16 ties KthStep k=527", 1099511627776, comm.Stats{TotalWords: 673, MaxSentWords: 126, MaxRecvWords: 165, TotalSends: 154, MaxSends: 16, MaxClock: 32240}},
	{"p=16 ties KthStep k=1054", 1924145348608, comm.Stats{TotalWords: 622, MaxSentWords: 105, MaxRecvWords: 141, TotalSends: 154, MaxSends: 16, MaxClock: 32216}},
	{"p=16 ties KthSorted k=1", 0, comm.Stats{TotalWords: 128, MaxSentWords: 8, MaxRecvWords: 8, TotalSends: 64, MaxSends: 4, MaxClock: 8016}},
	{"p=16 ties KthSorted k=2", 0, comm.Stats{TotalWords: 760, MaxSentWords: 158, MaxRecvWords: 244, TotalSends: 90, MaxSends: 12, MaxClock: 24316}},
	{"p=16 ties KthSorted k=527", 1099511627776, comm.Stats{TotalWords: 599, MaxSentWords: 132, MaxRecvWords: 197, TotalSends: 60, MaxSends: 8, MaxClock: 16249}},
	{"p=16 ties KthSorted k=1054", 1924145348608, comm.Stats{TotalWords: 684, MaxSentWords: 139, MaxRecvWords: 236, TotalSends: 60, MaxSends: 8, MaxClock: 16282}},
	{"p=16 ties KthSortedWindow k=1", 549755813888, comm.Stats{TotalWords: 128, MaxSentWords: 8, MaxRecvWords: 8, TotalSends: 64, MaxSends: 4, MaxClock: 8016}},
	{"p=16 ties KthSortedWindow k=2", 549755813888, comm.Stats{TotalWords: 982, MaxSentWords: 210, MaxRecvWords: 297, TotalSends: 120, MaxSends: 16, MaxClock: 32411}},
	{"p=16 ties KthSortedWindow k=295", 1099511627776, comm.Stats{TotalWords: 605, MaxSentWords: 133, MaxRecvWords: 199, TotalSends: 60, MaxSends: 8, MaxClock: 16251}},
	{"p=16 ties KthSortedWindow k=591", 1649267441664, comm.Stats{TotalWords: 709, MaxSentWords: 136, MaxRecvWords: 193, TotalSends: 124, MaxSends: 12, MaxClock: 24258}},
	{"p=64 random Kth k=1", 885527211292733, comm.Stats{TotalWords: 1152, MaxSentWords: 18, MaxRecvWords: 18, TotalSends: 768, MaxSends: 12, MaxClock: 24036}},
	{"p=64 random Kth k=2", 4289091276862506, comm.Stats{TotalWords: 2804, MaxSentWords: 229, MaxRecvWords: 268, TotalSends: 888, MaxSends: 30, MaxClock: 60445}},
	{"p=64 random Kth k=2111", 9436076309238813516, comm.Stats{TotalWords: 4053, MaxSentWords: 351, MaxRecvWords: 408, TotalSends: 1140, MaxSends: 42, MaxClock: 84657}},
	{"p=64 random Kth k=4222", 18442471642968636140, comm.Stats{TotalWords: 3329, MaxSentWords: 258, MaxRecvWords: 305, TotalSends: 1014, MaxSends: 36, MaxClock: 72511}},
	{"p=64 random KthStep k=1", 885527211292733, comm.Stats{TotalWords: 1152, MaxSentWords: 18, MaxRecvWords: 18, TotalSends: 768, MaxSends: 12, MaxClock: 24036}},
	{"p=64 random KthStep k=2", 4289091276862506, comm.Stats{TotalWords: 2804, MaxSentWords: 229, MaxRecvWords: 268, TotalSends: 888, MaxSends: 30, MaxClock: 60445}},
	{"p=64 random KthStep k=2111", 9436076309238813516, comm.Stats{TotalWords: 4053, MaxSentWords: 351, MaxRecvWords: 408, TotalSends: 1140, MaxSends: 42, MaxClock: 84657}},
	{"p=64 random KthStep k=4222", 18442471642968636140, comm.Stats{TotalWords: 3329, MaxSentWords: 258, MaxRecvWords: 305, TotalSends: 1014, MaxSends: 36, MaxClock: 72511}},
	{"p=64 random KthSorted k=1", 885527211292733, comm.Stats{TotalWords: 768, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 384, MaxSends: 6, MaxClock: 12024}},
	{"p=64 random KthSorted k=2", 4289091276862506, comm.Stats{TotalWords: 2210, MaxSentWords: 227, MaxRecvWords: 330, TotalSends: 378, MaxSends: 18, MaxClock: 36461}},
	{"p=64 random KthSorted k=2111", 9436076309238813516, comm.Stats{TotalWords: 2295, MaxSentWords: 241, MaxRecvWords: 349, TotalSends: 378, MaxSends: 18, MaxClock: 36472}},
	{"p=64 random KthSorted k=4222", 18442471642968636140, comm.Stats{TotalWords: 2170, MaxSentWords: 223, MaxRecvWords: 308, TotalSends: 378, MaxSends: 18, MaxClock: 36439}},
	{"p=64 random KthSortedWindow k=1", 3096022699209313486, comm.Stats{TotalWords: 768, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 384, MaxSends: 6, MaxClock: 12024}},
	{"p=64 random KthSortedWindow k=2", 3259571755701677775, comm.Stats{TotalWords: 2040, MaxSentWords: 196, MaxRecvWords: 279, TotalSends: 378, MaxSends: 18, MaxClock: 36382}},
	{"p=64 random KthSortedWindow k=1183", 9932688802665483824, comm.Stats{TotalWords: 2262, MaxSentWords: 235, MaxRecvWords: 345, TotalSends: 378, MaxSends: 18, MaxClock: 36462}},
	{"p=64 random KthSortedWindow k=2367", 16586041752243213994, comm.Stats{TotalWords: 1813, MaxSentWords: 156, MaxRecvWords: 210, TotalSends: 378, MaxSends: 18, MaxClock: 36319}},
	{"p=64 ties Kth k=1", 0, comm.Stats{TotalWords: 1152, MaxSentWords: 18, MaxRecvWords: 18, TotalSends: 768, MaxSends: 12, MaxClock: 24036}},
	{"p=64 ties Kth k=2", 0, comm.Stats{TotalWords: 2848, MaxSentWords: 221, MaxRecvWords: 281, TotalSends: 888, MaxSends: 30, MaxClock: 60469}},
	{"p=64 ties Kth k=2111", 1099511627776, comm.Stats{TotalWords: 1608, MaxSentWords: 119, MaxRecvWords: 146, TotalSends: 636, MaxSends: 18, MaxClock: 36220}},
	{"p=64 ties Kth k=4222", 1924145348608, comm.Stats{TotalWords: 2897, MaxSentWords: 238, MaxRecvWords: 299, TotalSends: 888, MaxSends: 30, MaxClock: 60471}},
	{"p=64 ties KthStep k=1", 0, comm.Stats{TotalWords: 1152, MaxSentWords: 18, MaxRecvWords: 18, TotalSends: 768, MaxSends: 12, MaxClock: 24036}},
	{"p=64 ties KthStep k=2", 0, comm.Stats{TotalWords: 2848, MaxSentWords: 221, MaxRecvWords: 281, TotalSends: 888, MaxSends: 30, MaxClock: 60469}},
	{"p=64 ties KthStep k=2111", 1099511627776, comm.Stats{TotalWords: 1608, MaxSentWords: 119, MaxRecvWords: 146, TotalSends: 636, MaxSends: 18, MaxClock: 36220}},
	{"p=64 ties KthStep k=4222", 1924145348608, comm.Stats{TotalWords: 2897, MaxSentWords: 238, MaxRecvWords: 299, TotalSends: 888, MaxSends: 30, MaxClock: 60471}},
	{"p=64 ties KthSorted k=1", 0, comm.Stats{TotalWords: 768, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 384, MaxSends: 6, MaxClock: 12024}},
	{"p=64 ties KthSorted k=2", 0, comm.Stats{TotalWords: 2397, MaxSentWords: 243, MaxRecvWords: 390, TotalSends: 378, MaxSends: 18, MaxClock: 36542}},
	{"p=64 ties KthSorted k=2111", 1099511627776, comm.Stats{TotalWords: 1657, MaxSentWords: 181, MaxRecvWords: 279, TotalSends: 252, MaxSends: 12, MaxClock: 24362}},
	{"p=64 ties KthSorted k=4222", 1924145348608, comm.Stats{TotalWords: 2589, MaxSentWords: 284, MaxRecvWords: 450, TotalSends: 378, MaxSends: 18, MaxClock: 36584}},
	{"p=64 ties KthSortedWindow k=1", 549755813888, comm.Stats{TotalWords: 768, MaxSentWords: 12, MaxRecvWords: 12, TotalSends: 384, MaxSends: 6, MaxClock: 12024}},
	{"p=64 ties KthSortedWindow k=2", 549755813888, comm.Stats{TotalWords: 2810, MaxSentWords: 275, MaxRecvWords: 402, TotalSends: 504, MaxSends: 24, MaxClock: 48544}},
	{"p=64 ties KthSortedWindow k=1183", 1099511627776, comm.Stats{TotalWords: 1673, MaxSentWords: 187, MaxRecvWords: 284, TotalSends: 252, MaxSends: 12, MaxClock: 24377}},
	{"p=64 ties KthSortedWindow k=2367", 1649267441664, comm.Stats{TotalWords: 2098, MaxSentWords: 211, MaxRecvWords: 291, TotalSends: 378, MaxSends: 18, MaxClock: 36421}},
}
