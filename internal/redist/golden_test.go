package redist

import (
	"fmt"
	"reflect"
	"testing"

	"commtopk/internal/comm"
)

// goldenCounts are the golden fixture's per-PE object counts: all on one
// PE, a sparse skew, and a 16-PE mix with every PE above or below n̄.
func goldenCounts(p int) []int64 {
	switch p {
	case 1:
		return []int64{13}
	case 3:
		return []int64{0, 17, 4}
	}
	counts := make([]int64, p)
	for r := range counts {
		counts[r] = int64((r*r*7 + 3) % 29)
	}
	return counts
}

// goldenLocal is PE r's tagged input: object j is r<<32 | j.
func goldenLocal(r int, count int64) []uint64 {
	local := make([]uint64, count)
	for j := range local {
		local[j] = uint64(r)<<32 | uint64(j)
	}
	return local
}

// runsOf writes a balanced slice as runs of consecutive tags: {first, n}.
func runsOf(objs []uint64) [][2]uint64 {
	var runs [][2]uint64
	for _, o := range objs {
		if k := len(runs) - 1; k >= 0 && runs[k][0]+runs[k][1] == o {
			runs[k][1]++
			continue
		}
		runs = append(runs, [2]uint64{o, 1})
	}
	return runs
}

// redistGolden is the golden fixture's recorded outcome: every PE's plan
// and balanced slice, and the machine's meters.
type redistGolden struct {
	plans []Plan
	runs  [][][2]uint64
	stats comm.Stats
}

// TestRedistResultsGolden pins BuildPlan's plan, Apply's balanced slice
// and the meters of both, bit for bit, at p ∈ {1, 3, 16}. Balance is
// BuildPlan followed by Apply and must reproduce the same slices and
// meters.
func TestRedistResultsGolden(t *testing.T) {
	want := map[int]redistGolden{
		1: {
			plans: []Plan{{NBar: 13}},
			runs:  [][][2]uint64{{{0x0, 13}}},
			stats: comm.Stats{},
		},
		3: {
			plans: []Plan{
				{NBar: 7, Recvs: []Transfer{{1, 7}}},
				{NBar: 7, Sends: []Transfer{{0, 7}, {2, 3}}},
				{NBar: 7, Recvs: []Transfer{{1, 3}}},
			},
			runs: [][][2]uint64{
				{{0x100000007, 7}},
				{{0x100000000, 7}},
				{{0x200000000, 4}, {0x10000000e, 3}},
			},
			stats: comm.Stats{TotalWords: 76, MaxSentWords: 32, MaxRecvWords: 27, TotalSends: 32, MaxSends: 14, MaxClock: 23055},
		},
		16: {
			plans: []Plan{
				{NBar: 15, Recvs: []Transfer{{4, 12}}},
				{NBar: 15, Recvs: []Transfer{{4, 1}, {6, 4}}},
				{NBar: 15, Recvs: []Transfer{{6, 4}, {7, 9}}},
				{NBar: 15, Recvs: []Transfer{{7, 3}, {8, 1}, {9, 3}}},
				{NBar: 15, Sends: []Transfer{{0, 12}, {1, 1}}},
				{NBar: 15, Recvs: []Transfer{{9, 1}, {12, 10}}},
				{NBar: 15, Sends: []Transfer{{1, 4}, {2, 4}}},
				{NBar: 15, Sends: []Transfer{{2, 9}, {3, 3}}},
				{NBar: 15, Sends: []Transfer{{3, 1}}},
				{NBar: 15, Sends: []Transfer{{3, 3}, {5, 1}}},
				{NBar: 15, Recvs: []Transfer{{13, 8}}},
				{NBar: 15, Recvs: []Transfer{{13, 3}}},
				{NBar: 15, Sends: []Transfer{{5, 10}}},
				{NBar: 15, Sends: []Transfer{{10, 8}, {11, 3}}},
				{NBar: 15},
				{NBar: 15},
			},
			runs: [][][2]uint64{
				{{0x0, 3}, {0x40000000f, 12}},
				{{0x100000000, 10}, {0x40000001b, 1}, {0x60000000f, 4}},
				{{0x200000000, 2}, {0x600000013, 4}, {0x70000000f, 9}},
				{{0x300000000, 8}, {0x700000018, 3}, {0x80000000f, 1}, {0x90000000f, 3}},
				{{0x400000000, 15}},
				{{0x500000000, 4}, {0x900000012, 1}, {0xc0000000f, 10}},
				{{0x600000000, 15}},
				{{0x700000000, 15}},
				{{0x800000000, 15}},
				{{0x900000000, 15}},
				{{0xa00000000, 7}, {0xd0000000f, 8}},
				{{0xb00000000, 9}, {0xd00000017, 3}},
				{{0xc00000000, 15}},
				{{0xd00000000, 15}},
				{{0xe00000000, 12}},
				{{0xf00000000, 12}},
			},
			stats: comm.Stats{TotalWords: 2235, MaxSentWords: 151, MaxRecvWords: 147, TotalSends: 396, MaxSends: 28, MaxClock: 54290},
		},
	}
	for _, p := range []int{1, 3, 16} {
		counts := goldenCounts(p)
		got := redistGolden{plans: make([]Plan, p), runs: make([][][2]uint64, p)}
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			plan := BuildPlan(pe, counts[r])
			got.plans[r] = plan
			got.runs[r] = runsOf(Apply(pe, goldenLocal(r, counts[r]), plan))
		})
		got.stats = m.Stats()
		m.Close()
		if w := want[p]; !reflect.DeepEqual(got, w) {
			t.Errorf("p=%d BuildPlan+Apply:\n got %s\nwant %s", p, fmtGolden(got), fmtGolden(w))
		}

		balanced := make([][][2]uint64, p)
		m = comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			balanced[r] = runsOf(Balance(pe, goldenLocal(r, counts[r])))
		})
		if !reflect.DeepEqual(balanced, got.runs) || m.Stats() != got.stats {
			t.Errorf("p=%d Balance differs from BuildPlan+Apply:\n got %v %+v\nwant %v %+v", p, balanced, m.Stats(), got.runs, got.stats)
		}
		m.Close()
	}
}

// fmtGolden prints g as the literal of a want entry.
func fmtGolden(g redistGolden) string {
	s := "plans: []Plan{\n"
	for _, pl := range g.plans {
		s += fmt.Sprintf("\t{NBar: %d", pl.NBar)
		if pl.Sends != nil {
			s += fmt.Sprintf(", Sends: %s", fmtTransfers(pl.Sends))
		}
		if pl.Recvs != nil {
			s += fmt.Sprintf(", Recvs: %s", fmtTransfers(pl.Recvs))
		}
		s += "},\n"
	}
	s += "},\nruns: [][][2]uint64{\n"
	for _, rs := range g.runs {
		s += "\t{"
		for i, r := range rs {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("{%#x, %d}", r[0], r[1])
		}
		s += "},\n"
	}
	return s + fmt.Sprintf("},\nstats: comm.Stats%+v", g.stats)
}

func fmtTransfers(ts []Transfer) string {
	s := "[]Transfer{"
	for i, tr := range ts {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%d, %d}", tr.Peer, tr.Count)
	}
	return s + "}"
}
