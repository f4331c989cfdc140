package bnb

import (
	"reflect"
	"testing"

	"commtopk/internal/comm"
)

// bnbObs captures everything observable from one distributed solve:
// per-PE results and the machine meters.
type bnbObs struct {
	res   []Result[KNode]
	stats comm.Stats
}

func solveBattery(p int, seed int64) bnbObs {
	k := RandomKnapsack(7, 18, 50)
	o := bnbObs{res: make([]Result[KNode], p)}
	mach := comm.NewMachine(comm.DefaultConfig(p))
	mach.MustRun(func(pe *comm.PE) {
		o.res[pe.Rank()] = Solve[KNode](pe, k, seed)
	})
	o.stats = mach.Stats()
	return o
}

// TestBnbRepeatedRunsBitIdentical pins the node-store satellite: with the
// map store replaced by the slot-indexed slice store there is no map
// iteration anywhere on the solve path, so repeated runs over the same
// instance must produce bit-identical results AND meters. Run with
// -count=5 in CI for the repeated-process variant.
func TestBnbRepeatedRunsBitIdentical(t *testing.T) {
	const p = 6
	ref := solveBattery(p, 99)
	for rep := 0; rep < 4; rep++ {
		got := solveBattery(p, 99)
		if !reflect.DeepEqual(got.res, ref.res) {
			t.Fatalf("rep %d: results diverged", rep)
		}
		if got.stats != ref.stats {
			t.Fatalf("rep %d: meters diverged: %+v vs %+v", rep, got.stats, ref.stats)
		}
	}
}
