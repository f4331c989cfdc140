package bnb

import (
	"fmt"
	"reflect"
	"testing"

	"commtopk/internal/comm"
)

// bnbGolden is the golden fixture's recorded outcome: every PE's Result
// and the machine's meters.
type bnbGolden struct {
	res   []Result[KNode]
	stats comm.Stats
}

// TestBnbResultsGolden pins Solve's result on every PE — objective,
// optimal node and its holder, expansion and iteration counts — and all
// six meters, bit for bit, at p ∈ {1, 3, 16}. Every deleteMin* batch,
// its selection's RNG draws and every collective of the search feed into
// these values.
func TestBnbResultsGolden(t *testing.T) {
	want := map[int]bnbGolden{
		1: {
			res: []Result[KNode]{
				{Objective: -571, Best: KNode{Level: 22, Value: 571, Weight: 326}, Found: true, Expanded: 68, Iterations: 64},
			},
		},
		3: {
			res: []Result[KNode]{
				{Objective: -571, Best: KNode{Level: 22, Value: 571, Weight: 326}, Found: true, Expanded: 131, Iterations: 24},
				{Objective: -571, Expanded: 131, Iterations: 24},
				{Objective: -571, Expanded: 131, Iterations: 24},
			},
			stats: comm.Stats{TotalWords: 764, MaxSentWords: 382, MaxRecvWords: 382, TotalSends: 544, MaxSends: 272, MaxClock: 544764},
		},
		16: {
			res: []Result[KNode]{
				{Objective: -571, Best: KNode{Level: 22, Value: 571, Weight: 326}, Found: true, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
				{Objective: -571, Expanded: 743, Iterations: 23},
			},
			stats: comm.Stats{TotalWords: 11392, MaxSentWords: 712, MaxRecvWords: 712, TotalSends: 8128, MaxSends: 508, MaxClock: 1017424},
		},
	}
	inst := RandomKnapsack(5, 22, 60)
	for _, p := range []int{1, 3, 16} {
		got := bnbGolden{res: make([]Result[KNode], p)}
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			got.res[pe.Rank()] = Solve[KNode](pe, inst, 99)
		})
		got.stats = m.Stats()
		m.Close()
		if w := want[p]; !reflect.DeepEqual(got, w) {
			t.Errorf("p=%d:\n got %s\nwant %s", p, fmtBnbGolden(got), fmtBnbGolden(w))
		}
	}
}

// fmtBnbGolden prints g as the literal of a want entry.
func fmtBnbGolden(g bnbGolden) string {
	s := "res: []Result[KNode]{\n"
	for _, r := range g.res {
		s += fmt.Sprintf("\t{Objective: %v, Best: KNode%+v, Found: %v, Expanded: %d, Iterations: %d},\n",
			r.Objective, r.Best, r.Found, r.Expanded, r.Iterations)
	}
	return s + fmt.Sprintf("},\nstats: comm.Stats%+v", g.stats)
}
