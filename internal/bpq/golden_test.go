package bpq

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"commtopk/internal/comm"
)

// bpqGolden is the golden fixture's recorded outcome: every PE's log of
// what each operation returned to it, and the machine's meters.
type bpqGolden struct {
	pes   []string
	stats comm.Stats
}

// runBpqGolden runs the golden fixture at p and returns its outcome. Per
// PE the log reads, in operation order: L<GlobalLen>, P<PeekMin result>,
// D<this PE's share of an exact batch>, F<realized n><this PE's share of
// a flexible batch>. The sequence covers exact and flexible batches with
// inserts between them, a flexible drain, an exact drain, and every
// operation on an empty queue.
func runBpqGolden(p int) bpqGolden {
	g := bpqGolden{pes: make([]string, p)}
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		var log strings.Builder
		// keys are globally unique and small: block b, index i on rank r.
		keys := func(b, n int) []uint64 {
			ks := make([]uint64, n)
			for i := range ks {
				ks[i] = uint64((b+i)*p + r)
			}
			return ks
		}
		q := New[uint64](pe, 77)
		q.InsertBulk(keys(0, 6+r%5))
		lenPeek := func() {
			mn, ok := q.PeekMin()
			fmt.Fprintf(&log, "L%d P(%d,%v) ", q.GlobalLen(), mn, ok)
		}
		exact := func(k int64) { fmt.Fprintf(&log, "D%v ", q.DeleteMin(k)) }
		flex := func(kmin, kmax int64) {
			b, n := q.DeleteMinFlexible(kmin, kmax)
			fmt.Fprintf(&log, "F%d%v ", n, b)
		}
		lenPeek()
		exact(int64(p + 2))
		flex(int64(p), int64(3*p))
		q.InsertBulk(keys(40, 3))
		exact(1)
		lenPeek()
		exact(int64(2*p + 1))
		q.InsertBulk(keys(60, 2+r%3))
		flex(int64(p+1), int64(p+1))
		flex(int64(100*p), int64(200*p)) // the flexible drain
		lenPeek()
		exact(3)
		flex(1, 4)
		q.InsertBulk(keys(80, 1+r%2))
		exact(int64(100 * p)) // the exact drain
		lenPeek()
		g.pes[r] = strings.TrimSpace(log.String())
	})
	g.stats = m.Stats()
	return g
}

// TestBpqResultsGolden pins, at p ∈ {1, 3, 16}, every PE's batches,
// realized flexible sizes, PeekMin and GlobalLen results and all six
// meters, bit for bit. Every selection's RNG draws and every collective
// of the queue feed into these values.
func TestBpqResultsGolden(t *testing.T) {
	want := map[int]bpqGolden{
		1: {
			pes: []string{
				"L6 P(0,true) D[0 1 2] F3[3 4 5] D[40] L2 P(41,true) D[41 42] F2[60 61] F0[] L0 P(0,false) D[] F0[] D[80] L0 P(0,false)",
			},
			stats: comm.Stats{TotalWords: 0, MaxSentWords: 0, MaxRecvWords: 0, TotalSends: 0, MaxSends: 0, MaxClock: 0},
		},
		3: {
			pes: []string{
				"L21 P(0,true) D[0 3] F6[6 9] D[] L18 P(12,true) D[12 15] F4[120] F16[123 126 180 183] L0 P(0,false) D[] F0[] D[240] L0 P(0,false)",
				"L21 P(0,true) D[1 4] F6[7 10] D[] L18 P(12,true) D[13 16 19] F4[121] F16[124 127 181 184 187] L0 P(0,false) D[] F0[] D[241 244] L0 P(0,false)",
				"L21 P(0,true) D[2] F6[5 8] D[11] L18 P(12,true) D[14 17] F4[20 23] F16[122 125 128 182 185 188 191] L0 P(0,false) D[] F0[] D[242] L0 P(0,false)",
			},
			stats: comm.Stats{TotalWords: 211, MaxSentWords: 100, MaxRecvWords: 111, TotalSends: 112, MaxSends: 56, MaxClock: 112211},
		},
		16: {
			pes: []string{
				"L126 P(0,true) D[0 16] F37[32 48] D[] L118 P(56,true) D[64 80] F17[] F115[640 656 672 960 976] L0 P(0,false) D[] F0[] D[1280] L0 P(0,false)",
				"L126 P(0,true) D[1 17] F37[33 49] D[] L118 P(56,true) D[65 81] F17[97] F115[641 657 673 961 977 993] L0 P(0,false) D[] F0[] D[1281 1297] L0 P(0,false)",
				"L126 P(0,true) D[2] F37[18 34 50] D[] L118 P(56,true) D[66 82] F17[98] F115[114 642 658 674 962 978 994 1010] L0 P(0,false) D[] F0[] D[1282] L0 P(0,false)",
				"L126 P(0,true) D[3] F37[19 35 51] D[] L118 P(56,true) D[67 83] F17[99] F115[115 131 643 659 675 963 979] L0 P(0,false) D[] F0[] D[1283 1299] L0 P(0,false)",
				"L126 P(0,true) D[4] F37[20 36 52] D[] L118 P(56,true) D[68 84] F17[100] F115[116 132 148 644 660 676 964 980 996] L0 P(0,false) D[] F0[] D[1284] L0 P(0,false)",
				"L126 P(0,true) D[5] F37[21 37 53] D[] L118 P(56,true) D[69 85] F17[] F115[645 661 677 965 981 997 1013] L0 P(0,false) D[] F0[] D[1285 1301] L0 P(0,false)",
				"L126 P(0,true) D[6] F37[22 38 54] D[] L118 P(56,true) D[70 86] F17[102] F115[646 662 678 966 982] L0 P(0,false) D[] F0[] D[1286] L0 P(0,false)",
				"L126 P(0,true) D[7] F37[23 39] D[55] L118 P(56,true) D[71 87] F17[103] F115[119 647 663 679 967 983 999] L0 P(0,false) D[] F0[] D[1287 1303] L0 P(0,false)",
				"L126 P(0,true) D[8] F37[24 40] D[] L118 P(56,true) D[56 72 88] F17[104] F115[120 136 648 664 680 968 984 1000 1016] L0 P(0,false) D[] F0[] D[1288] L0 P(0,false)",
				"L126 P(0,true) D[9] F37[25 41] D[] L118 P(56,true) D[57 73] F17[89 105] F115[121 137 153 649 665 681 969 985] L0 P(0,false) D[] F0[] D[1289 1305] L0 P(0,false)",
				"L126 P(0,true) D[10] F37[26 42] D[] L118 P(56,true) D[58 74] F17[90] F115[650 666 682 970 986 1002] L0 P(0,false) D[] F0[] D[1290] L0 P(0,false)",
				"L126 P(0,true) D[11] F37[27 43] D[] L118 P(56,true) D[59 75] F17[91 107] F115[651 667 683 971 987 1003 1019] L0 P(0,false) D[] F0[] D[1291 1307] L0 P(0,false)",
				"L126 P(0,true) D[12] F37[28 44] D[] L118 P(56,true) D[60 76] F17[92 108] F115[124 652 668 684 972 988] L0 P(0,false) D[] F0[] D[1292] L0 P(0,false)",
				"L126 P(0,true) D[13] F37[29 45] D[] L118 P(56,true) D[61 77] F17[93] F115[109 125 141 653 669 685 973 989 1005] L0 P(0,false) D[] F0[] D[1293 1309] L0 P(0,false)",
				"L126 P(0,true) D[14] F37[30 46] D[] L118 P(56,true) D[62 78] F17[94] F115[110 126 142 158 654 670 686 974 990 1006 1022] L0 P(0,false) D[] F0[] D[1294] L0 P(0,false)",
				"L126 P(0,true) D[15] F37[31 47] D[] L118 P(56,true) D[63 79] F17[95] F115[655 671 687 975 991] L0 P(0,false) D[] F0[] D[1295 1311] L0 P(0,false)",
			},
			stats: comm.Stats{TotalWords: 3255, MaxSentWords: 343, MaxRecvWords: 404, TotalSends: 1656, MaxSends: 112, MaxClock: 224654},
		},
	}
	for _, p := range []int{1, 3, 16} {
		if got := runBpqGolden(p); !reflect.DeepEqual(got, want[p]) {
			t.Errorf("p=%d:\n got %s\nwant %s", p, fmtBpqGolden(got), fmtBpqGolden(want[p]))
		}
	}
}

// fmtBpqGolden prints g as the literal of a want entry.
func fmtBpqGolden(g bpqGolden) string {
	s := "pes: []string{\n"
	for _, l := range g.pes {
		s += fmt.Sprintf("\t%q,\n", l)
	}
	return s + fmt.Sprintf("},\nstats: comm.Stats%+v", g.stats)
}
