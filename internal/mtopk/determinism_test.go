package mtopk

import (
	"reflect"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// runOnce executes one full battery (DTA, DTAProbed with three probes,
// RDTA, TopK) on a fresh machine and returns everything observable:
// per-PE results and the machine meters.
type mtopkObs struct {
	dta   []DTAResult
	probe []DTAResult
	rdta  [][]Hit
	topk  [][]Hit
	stats comm.Stats
}

func runBattery(p int, datas []*Data) mtopkObs {
	o := mtopkObs{dta: make([]DTAResult, p), probe: make([]DTAResult, p), rdta: make([][]Hit, p), topk: make([][]Hit, p)}
	mach := comm.NewMachine(comm.DefaultConfig(p))
	mach.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		o.dta[r] = DTA(pe, datas[r], SumScore, 9, xrand.NewPE(101, r))
		o.probe[r] = DTAProbed(pe, datas[r], SumScore, 9, 3, xrand.NewPE(107, r))
		o.rdta[r] = RDTA(pe, datas[r], SumScore, 9, xrand.NewPE(103, r))
		o.topk[r], _ = TopK(pe, datas[r], SumScore, 9, xrand.NewPE(105, r))
	})
	o.stats = mach.Stats()
	return o
}

// TestMtopkRepeatedRunsBitIdentical pins the map-order satellite: with
// slice/Table-backed data structures there is no map iteration anywhere
// on the DTA/RDTA/TopK paths, so repeated runs over identical inputs
// must produce bit-identical results AND meters. Run with -count=5 in CI
// for the repeated-process variant.
func TestMtopkRepeatedRunsBitIdentical(t *testing.T) {
	const p = 6
	datas, _ := buildDistributed(41, p, 250, 3)
	ref := runBattery(p, datas)
	for rep := 0; rep < 4; rep++ {
		// Rebuild the data too: NewData itself must be deterministic.
		datas2, _ := buildDistributed(41, p, 250, 3)
		got := runBattery(p, datas2)
		if !reflect.DeepEqual(got.dta, ref.dta) {
			t.Fatalf("rep %d: DTA results diverged", rep)
		}
		if !reflect.DeepEqual(got.probe, ref.probe) {
			t.Fatalf("rep %d: DTAProbed results diverged", rep)
		}
		if !reflect.DeepEqual(got.rdta, ref.rdta) {
			t.Fatalf("rep %d: RDTA results diverged", rep)
		}
		if !reflect.DeepEqual(got.topk, ref.topk) {
			t.Fatalf("rep %d: TopK results diverged", rep)
		}
		if got.stats != ref.stats {
			t.Fatalf("rep %d: meters diverged: %+v vs %+v", rep, got.stats, ref.stats)
		}
	}
}
