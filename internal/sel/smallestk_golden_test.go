package sel

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// smallestKGolden is the golden fixture's recorded outcome: every PE's
// SmallestK share, sorted, and the machine's meters.
type smallestKGolden struct {
	shares [][]uint64
	stats  comm.Stats
}

// TestSmallestKGolden pins SmallestK's share on every PE and all six
// meters, bit for bit, at p ∈ {1, 3, 16}. The keys repeat about four
// times each and rank k falls inside a tie group, so the share depends on
// the selection's RNG draws, the rank split and the prefix sum that
// divides the tie group among the PEs.
func TestSmallestKGolden(t *testing.T) {
	want := map[int]smallestKGolden{
		1: {
			shares: [][]uint64{
				{0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 3, 5, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 8, 8, 9, 9, 9, 9, 9, 10, 10, 10, 11, 11, 11, 11, 11, 11, 12, 12, 12,
					13, 13, 13, 13, 13, 13, 14, 14, 15, 15, 15, 16, 16, 16, 16, 17, 17, 18, 18, 19, 19, 19, 19, 19, 20, 20, 20, 21, 21, 21, 21, 21, 21, 21},
			},
		},
		3: {
			shares: [][]uint64{
				{0, 1, 5, 5, 5, 6, 6, 7, 9, 10, 10, 11, 11, 11, 13, 13, 15, 16, 17, 19, 19, 19, 19},
				{0, 1, 2, 2, 3, 5, 7, 8, 8, 9, 10, 10, 12, 13, 13, 14, 15, 16, 16, 17, 18, 18, 18},
				{0, 0, 0, 0, 1, 2, 2, 3, 4, 6, 6, 6, 7, 7, 8, 12, 12, 13, 13, 13, 15, 15, 16, 16, 18, 18, 18, 18, 19, 19, 19},
			},
			stats: comm.Stats{TotalWords: 182, MaxSentWords: 72, MaxRecvWords: 133, TotalSends: 29, MaxSends: 15, MaxClock: 27180},
		},
		16: {
			shares: [][]uint64{
				{10, 11, 19},
				{2, 8, 16, 18},
				{0, 15, 16, 22},
				{6, 7, 8, 13, 22, 22},
				{1, 22},
				{3, 4, 5, 5, 5, 6, 13, 19},
				{2, 9, 13, 19, 22},
				{6, 9, 13, 17},
				{0, 4, 5, 9, 13, 15},
				{0, 6, 7, 9, 10, 13, 16},
				{5, 7, 20},
				{2, 3, 3, 4, 7, 9, 10, 18, 19},
				{0, 6, 20, 21},
				{0, 2, 10, 14, 18},
				{10, 12, 15},
				{4, 7, 17, 18},
			},
			stats: comm.Stats{TotalWords: 969, MaxSentWords: 172, MaxRecvWords: 196, TotalSends: 312, MaxSends: 29, MaxClock: 57354},
		},
	}
	const n, k = 240, 77
	for _, p := range []int{1, 3, 16} {
		locals := make([][]uint64, p)
		for r := range locals {
			rng := xrand.NewPE(23, r)
			locals[r] = make([]uint64, n/p+r%3)
			for i := range locals[r] {
				locals[r][i] = uint64(rng.Intn(n / 4))
			}
		}
		got := smallestKGolden{shares: make([][]uint64, p)}
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			share := SmallestK(pe, locals[pe.Rank()], k, xrand.NewPE(29, pe.Rank()))
			slices.Sort(share)
			got.shares[pe.Rank()] = share
		})
		got.stats = m.Stats()
		m.Close()
		if w := want[p]; !reflect.DeepEqual(got, w) {
			t.Errorf("p=%d:\n got %s\nwant %s", p, fmtSmallestKGolden(got), fmtSmallestKGolden(w))
		}
	}
}

// fmtSmallestKGolden prints g as the literal of a want entry.
func fmtSmallestKGolden(g smallestKGolden) string {
	s := "shares: [][]uint64{\n"
	for _, sh := range g.shares {
		s += "\t{" + strings.ReplaceAll(strings.Trim(fmt.Sprint(sh), "[]"), " ", ", ") + "},\n"
	}
	return s + fmt.Sprintf("},\nstats: comm.Stats%+v", g.stats)
}
