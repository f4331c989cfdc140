package freq

import (
	"reflect"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// TestFreqSteppersMatchBlocking pins the form serve's TopKFreq queries
// run PAC in, a nested body (comm.BodyStep) of a stepper under RunAsync:
// it produces bit-identical results and meters to PAC run by Run, twice
// in a row on one machine so pooled scratch carries over.
func TestFreqSteppersMatchBlocking(t *testing.T) {
	const p = 5
	locals, _ := zipfWorkload(29, p, 3000, 1<<11)
	params := Params{K: 8, Eps: 0.02, Delta: 0.01}

	type obs struct {
		pac   [2][]Result
		stats comm.Stats
	}
	ref := obs{pac: [2][]Result{make([]Result, p), make([]Result, p)}}
	mach := comm.NewMachine(comm.DefaultConfig(p))
	mach.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		ref.pac[0][r] = PAC(pe, locals[r], params, xrand.NewPE(31, r))
		ref.pac[1][r] = PAC(pe, locals[r], params, xrand.NewPE(33, r))
	})
	ref.stats = mach.Stats()

	got := obs{pac: [2][]Result{make([]Result, p), make([]Result, p)}}
	mach2 := comm.NewMachine(comm.DefaultConfig(p))
	mach2.MustRunAsync(func(pe *comm.PE) comm.Stepper {
		r := pe.Rank()
		return comm.SeqP(pe,
			comm.BodyStep(pe, func(pe *comm.PE) { got.pac[0][r] = PAC(pe, locals[r], params, xrand.NewPE(31, r)) }),
			comm.BodyStep(pe, func(pe *comm.PE) { got.pac[1][r] = PAC(pe, locals[r], params, xrand.NewPE(33, r)) }),
		)
	})
	got.stats = mach2.Stats()

	if !reflect.DeepEqual(got.pac, ref.pac) {
		t.Errorf("PAC as a nested body diverged from PAC under Run")
	}
	if got.stats != ref.stats {
		t.Errorf("nested-body meters diverged: %+v vs %+v", got.stats, ref.stats)
	}
}

// TestFreqRepeatedRunsBitIdentical: no map iteration or interleaving
// artifact anywhere on the PAC/EC paths — repeated runs over identical
// inputs must be bit-identical in results AND meters.
func TestFreqRepeatedRunsBitIdentical(t *testing.T) {
	const p = 5
	params := Params{K: 8, Eps: 0.02, Delta: 0.01}
	run := func() ([]Result, []Result, comm.Stats) {
		locals, _ := zipfWorkload(37, p, 2500, 1<<11)
		pac := make([]Result, p)
		ec := make([]Result, p)
		mach := comm.NewMachine(comm.DefaultConfig(p))
		mach.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			pac[r] = PAC(pe, locals[r], params, xrand.NewPE(41, r))
			ec[r] = EC(pe, locals[r], params, xrand.NewPE(43, r))
		})
		return pac, ec, mach.Stats()
	}
	refPAC, refEC, refStats := run()
	for rep := 0; rep < 3; rep++ {
		pac, ec, stats := run()
		if !reflect.DeepEqual(pac, refPAC) || !reflect.DeepEqual(ec, refEC) {
			t.Fatalf("rep %d: results diverged", rep)
		}
		if stats != refStats {
			t.Fatalf("rep %d: meters diverged", rep)
		}
	}
}
