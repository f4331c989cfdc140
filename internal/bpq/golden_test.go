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
				"L21 P(0,true) D[0 3] F7[6 9] D[12] L17 P(13,true) D[15] F4[120] F15[123 126 180 183] L0 P(0,false) D[] F0[] D[240] L0 P(0,false)",
				"L21 P(0,true) D[1 4] F7[7 10] D[] L17 P(13,true) D[13 16 19] F4[121] F15[124 127 181 184 187] L0 P(0,false) D[] F0[] D[241 244] L0 P(0,false)",
				"L21 P(0,true) D[2] F7[5 8 11] D[] L17 P(13,true) D[14 17 20] F4[23 122] F15[125 128 182 185 188 191] L0 P(0,false) D[] F0[] D[242] L0 P(0,false)",
			},
			stats: comm.Stats{TotalWords: 319, MaxSentWords: 154, MaxRecvWords: 165, TotalSends: 184, MaxSends: 92, MaxClock: 184319},
		},
		16: {
			pes: []string{
				"L126 P(0,true) D[0 16] F34[32 48] D[] L121 P(53,true) D[64 80] F17[] F118[640 656 672 960 976] L0 P(0,false) D[] F0[] D[1280] L0 P(0,false)",
				"L126 P(0,true) D[1 17] F34[33 49] D[] L121 P(53,true) D[65 81] F17[97] F118[641 657 673 961 977 993] L0 P(0,false) D[] F0[] D[1281 1297] L0 P(0,false)",
				"L126 P(0,true) D[2] F34[18 34 50] D[] L121 P(53,true) D[66 82] F17[98] F118[114 642 658 674 962 978 994 1010] L0 P(0,false) D[] F0[] D[1282] L0 P(0,false)",
				"L126 P(0,true) D[3] F34[19 35 51] D[] L121 P(53,true) D[67 83] F17[99] F118[115 131 643 659 675 963 979] L0 P(0,false) D[] F0[] D[1283 1299] L0 P(0,false)",
				"L126 P(0,true) D[4] F34[20 36] D[52] L121 P(53,true) D[68 84] F17[100] F118[116 132 148 644 660 676 964 980 996] L0 P(0,false) D[] F0[] D[1284] L0 P(0,false)",
				"L126 P(0,true) D[5] F34[21 37] D[] L121 P(53,true) D[53 69 85] F17[] F118[645 661 677 965 981 997 1013] L0 P(0,false) D[] F0[] D[1285 1301] L0 P(0,false)",
				"L126 P(0,true) D[6] F34[22 38] D[] L121 P(53,true) D[54 70] F17[86 102] F118[646 662 678 966 982] L0 P(0,false) D[] F0[] D[1286] L0 P(0,false)",
				"L126 P(0,true) D[7] F34[23 39] D[] L121 P(53,true) D[55 71] F17[87 103] F118[119 647 663 679 967 983 999] L0 P(0,false) D[] F0[] D[1287 1303] L0 P(0,false)",
				"L126 P(0,true) D[8] F34[24 40] D[] L121 P(53,true) D[56 72] F17[88 104] F118[120 136 648 664 680 968 984 1000 1016] L0 P(0,false) D[] F0[] D[1288] L0 P(0,false)",
				"L126 P(0,true) D[9] F34[25 41] D[] L121 P(53,true) D[57 73] F17[89] F118[105 121 137 153 649 665 681 969 985] L0 P(0,false) D[] F0[] D[1289 1305] L0 P(0,false)",
				"L126 P(0,true) D[10] F34[26 42] D[] L121 P(53,true) D[58 74] F17[90] F118[650 666 682 970 986 1002] L0 P(0,false) D[] F0[] D[1290] L0 P(0,false)",
				"L126 P(0,true) D[11] F34[27 43] D[] L121 P(53,true) D[59 75] F17[91] F118[107 651 667 683 971 987 1003 1019] L0 P(0,false) D[] F0[] D[1291 1307] L0 P(0,false)",
				"L126 P(0,true) D[12] F34[28 44] D[] L121 P(53,true) D[60 76] F17[92] F118[108 124 652 668 684 972 988] L0 P(0,false) D[] F0[] D[1292] L0 P(0,false)",
				"L126 P(0,true) D[13] F34[29 45] D[] L121 P(53,true) D[61 77] F17[93] F118[109 125 141 653 669 685 973 989 1005] L0 P(0,false) D[] F0[] D[1293 1309] L0 P(0,false)",
				"L126 P(0,true) D[14] F34[30 46] D[] L121 P(53,true) D[62 78] F17[94] F118[110 126 142 158 654 670 686 974 990 1006 1022] L0 P(0,false) D[] F0[] D[1294] L0 P(0,false)",
				"L126 P(0,true) D[15] F34[31 47] D[] L121 P(53,true) D[63 79] F17[95] F118[655 671 687 975 991] L0 P(0,false) D[] F0[] D[1295 1311] L0 P(0,false)",
			},
			stats: comm.Stats{TotalWords: 4222, MaxSentWords: 401, MaxRecvWords: 464, TotalSends: 2296, MaxSends: 152, MaxClock: 304771},
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
