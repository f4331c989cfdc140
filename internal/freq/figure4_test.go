package freq

import (
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

// The exact input of Figure 4: four PEs, 25 letters each.
var figure4Grids = [4]string{
	"LDENAAAGUTIUOEHHTASSARGMR",
	"EESEAFDOTTITHAILDHMOESULT",
	"TAETSOHDENDGRWEAIEOEHOUOE",
	"EIDSIEPRTDNFEEAHWINTWYIID",
}

func figure4Locals() [4][]uint64 {
	var locals [4][]uint64
	for i, grid := range figure4Grids {
		for _, ch := range grid {
			locals[i] = append(locals[i], uint64(ch))
		}
	}
	return locals
}

func TestFigure4ExactCounts(t *testing.T) {
	// The paper states the exact result of the example input:
	// (E,16), (A,10), (T,10), (I,9), (D,8).
	locals := figure4Locals()
	counts := map[uint64]int64{}
	for _, l := range locals {
		for _, x := range l {
			counts[x]++
		}
	}
	want := map[rune]int64{'E': 16, 'A': 10, 'T': 10, 'I': 9, 'D': 8}
	for ch, c := range want {
		if counts[uint64(ch)] != c {
			t.Errorf("count(%c) = %d, want %d", ch, counts[uint64(ch)], c)
		}
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n != 100 {
		t.Errorf("total letters %d, want 100", n)
	}
}

func TestFigure4PaperExample(t *testing.T) {
	// Run the PAC pipeline of Figure 4 on its own input (ρ = 0.3, k = 5,
	// 4 PEs) and check the paper's error bound behaviour: the error ε̃·n
	// is the count gap between the best missed and worst returned object.
	// With ρ = 0.3 on 100 letters the result is sample-dependent; the
	// paper's own draw errs by exactly 1 (O returned instead of D). We
	// check the algorithm across seeds: the error must stay small and hit
	// zero for many seeds.
	locals := figure4Locals()
	exact := map[uint64]int64{}
	for _, l := range locals {
		for _, x := range l {
			exact[x]++
		}
	}
	const trials = 40
	zeroErr := 0
	var totalErr float64
	for seed := int64(0); seed < trials; seed++ {
		m := comm.NewMachine(comm.DefaultConfig(4))
		var got []uint64
		m.MustRun(func(pe *comm.PE) {
			rng := xrand.NewPE(seed, pe.Rank())
			runs, _ := sampleCounts(locals[pe.Rank()], 0.3, rng, nil)
			shard := dht.CountKV(pe, runs, dht.RouteHypercube)
			top := dht.SelectTopK(pe, *shard, 5, rng)
			commbuf.Put(shard)
			if pe.Rank() == 0 {
				got = keysOf(top)
			}
		})
		e := stats.EpsTilde(exact, got, 100) * 100 // error in letters
		if e > 16 {
			t.Errorf("seed %d: error %v letters exceeds the maximum possible gap", seed, e)
		}
		totalErr += e
		if e == 0 {
			zeroErr++
		}
	}
	// A 30%-sample of 100 letters is noisy (the paper's own draw errs by
	// 1 letter); but across seeds the pipeline must usually land close.
	if mean := totalErr / trials; mean > 8 {
		t.Errorf("mean error %v letters; sampling pipeline looks broken", mean)
	}
	if zeroErr == 0 {
		t.Error("no trial was exact; sampling pipeline looks broken")
	}
}
