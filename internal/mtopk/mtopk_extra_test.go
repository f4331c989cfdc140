package mtopk

import (
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

func TestGenCorrelatedObjects(t *testing.T) {
	objs := GenCorrelatedObjects(xrand.New(1), 2000, 3, 100)
	if len(objs) != 2000 || objs[0].ID != 100 {
		t.Fatal("shape wrong")
	}
	// Positive correlation: per-object score variance should be well below
	// the variance of independent uniforms.
	var within float64
	for _, o := range objs {
		mean := (o.Scores[0] + o.Scores[1] + o.Scores[2]) / 3
		for _, s := range o.Scores {
			within += (s - mean) * (s - mean)
		}
	}
	within /= float64(3 * len(objs))
	if within > 0.04 { // independent uniforms would give ~0.083·2/3 ≈ 0.056
		t.Errorf("within-object variance %v; correlation too weak", within)
	}
}

func TestDTAOnCorrelatedWorkload(t *testing.T) {
	// Correlated criteria are TA's easy case: DTA should stop at small K.
	const p = 4
	datas := make([]*Data, p)
	var all []Object
	for r := 0; r < p; r++ {
		objs := GenCorrelatedObjects(xrand.NewPE(2, r), 500, 3, uint64(r)<<32)
		datas[r] = NewData(objs, 3)
		all = append(all, objs...)
	}
	want := BruteForceTopK(NewData(all, 3), SumScore, 8)
	m := comm.NewMachine(comm.DefaultConfig(p))
	union := map[uint64]bool{}
	hitsByPE := make([][]Hit, p)
	var res DTAResult
	m.MustRun(func(pe *comm.PE) {
		r := DTA(pe, datas[pe.Rank()], SumScore, 8, xrand.NewPE(3, pe.Rank()))
		hitsByPE[pe.Rank()] = r.Hits
		if pe.Rank() == 0 {
			res = r
		}
	})
	for _, hs := range hitsByPE {
		for _, h := range hs {
			union[h.ID] = true
		}
	}
	for _, w := range want {
		if !union[w.ID] {
			t.Errorf("missed top object %d", w.ID)
		}
	}
	if res.K >= 2000 {
		t.Errorf("DTA escalated to K=%d on an easy workload", res.K)
	}
}

func TestDTAEmptyAndTinyInputs(t *testing.T) {
	const p = 3
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		empty := NewData(nil, 2)
		res := DTA(pe, empty, SumScore, 5, xrand.NewPE(4, pe.Rank()))
		if len(res.Hits) != 0 {
			t.Errorf("empty data produced hits")
		}
	})
	// One object total, living on PE 0; k exceeds the corpus.
	m2 := comm.NewMachine(comm.DefaultConfig(p))
	m2.MustRun(func(pe *comm.PE) {
		var objs []Object
		if pe.Rank() == 0 {
			objs = []Object{{ID: 42, Scores: []float64{0.9, 0.1}}}
		}
		d := NewData(objs, 2)
		res := DTA(pe, d, SumScore, 5, xrand.NewPE(5, pe.Rank()))
		if pe.Rank() == 0 {
			if len(res.Hits) != 1 || res.Hits[0].ID != 42 {
				t.Errorf("singleton corpus: hits %v", res.Hits)
			}
		} else if len(res.Hits) != 0 {
			t.Errorf("PE %d fabricated hits", pe.Rank())
		}
	})
}

func TestRDTAKExceedsCorpus(t *testing.T) {
	const p = 2
	m := comm.NewMachine(comm.DefaultConfig(p))
	shares := make([][]Hit, p)
	m.MustRun(func(pe *comm.PE) {
		objs := GenObjects(xrand.NewPE(6, pe.Rank()), 3, 2, uint64(pe.Rank())<<32)
		d := NewData(objs, 2)
		shares[pe.Rank()] = RDTA(pe, d, SumScore, 50, xrand.NewPE(7, pe.Rank()))
	})
	total := len(shares[0]) + len(shares[1])
	if total != 6 {
		t.Errorf("k beyond corpus returned %d of 6 objects", total)
	}
}

func TestDuplicateObjectIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate ID should panic")
		}
	}()
	NewData([]Object{
		{ID: 1, Scores: []float64{0.1}},
		{ID: 1, Scores: []float64{0.2}},
	}, 1)
}

func TestDTAKValidation(t *testing.T) {
	m := comm.NewMachine(comm.DefaultConfig(1))
	err := m.Run(func(pe *comm.PE) {
		DTA(pe, NewData(nil, 1), SumScore, 0, xrand.New(1))
	})
	if err == nil {
		t.Error("k=0 should panic")
	}
}

func TestDTAProbedFewerRounds(t *testing.T) {
	// The Section 6 refinement: probing several K per round must reduce
	// the exponential-search round count without losing hits, and since a
	// round's probes are lanes of one selection, without more startups.
	const p = 4
	const perPE = 2000
	const k = 24
	datas := make([]*Data, p)
	var all []Object
	for r := 0; r < p; r++ {
		objs := GenObjects(xrand.NewPE(8, r), perPE, 3, uint64(r)<<32)
		datas[r] = NewData(objs, 3)
		all = append(all, objs...)
	}
	want := BruteForceTopK(NewData(all, 3), SumScore, k)

	run := func(probes int) (DTAResult, map[uint64]bool, int64) {
		m := comm.NewMachine(comm.DefaultConfig(p))
		defer m.Close()
		union := map[uint64]bool{}
		hitsByPE := make([][]Hit, p)
		var res DTAResult
		m.MustRun(func(pe *comm.PE) {
			r := DTAProbed(pe, datas[pe.Rank()], SumScore, k, probes, xrand.NewPE(9, pe.Rank()))
			hitsByPE[pe.Rank()] = r.Hits
			if pe.Rank() == 0 {
				res = r
			}
		})
		for _, hs := range hitsByPE {
			for _, h := range hs {
				union[h.ID] = true
			}
		}
		return res, union, m.Stats().MaxSends
	}
	plain, unionPlain, sendsPlain := run(1)
	probed, unionProbed, sendsProbed := run(3)
	if probed.Rounds > plain.Rounds {
		t.Errorf("probed rounds %d > plain %d", probed.Rounds, plain.Rounds)
	}
	if sendsProbed > sendsPlain {
		t.Errorf("probed DTA sent %d messages per PE, plain %d", sendsProbed, sendsPlain)
	}
	for _, w := range want {
		if !unionPlain[w.ID] {
			t.Errorf("plain DTA missed %d", w.ID)
		}
		if !unionProbed[w.ID] {
			t.Errorf("probed DTA missed %d", w.ID)
		}
	}
}

func TestDTAProbedValidation(t *testing.T) {
	m := comm.NewMachine(comm.DefaultConfig(1))
	err := m.Run(func(pe *comm.PE) {
		DTAProbed(pe, NewData(nil, 1), SumScore, 1, 0, xrand.New(1))
	})
	if err == nil {
		t.Error("probes=0 should panic")
	}
}
