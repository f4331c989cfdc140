package mtopk

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

func TestOrdDescRoundTripAndOrder(t *testing.T) {
	vals := []float64{math.Inf(1), 1e300, 3.5, 1, 1e-300, 0, -1e-300, -2.5, -1e300, math.Inf(-1)}
	for i, v := range vals {
		if got := FromOrdDesc(OrdDesc(v)); got != v {
			t.Errorf("round trip of %v gave %v", v, got)
		}
		if i > 0 && OrdDesc(vals[i-1]) >= OrdDesc(v) {
			t.Errorf("descending order broken at %v vs %v", vals[i-1], v)
		}
	}
}

func TestOrdDescQuick(t *testing.T) {
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a == b {
			return OrdDesc(a) == OrdDesc(b)
		}
		return (a > b) == (OrdDesc(a) < OrdDesc(b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSequentialTAMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		objs := GenObjects(xrand.New(seed), 500, 3, 0)
		d := NewData(objs, 3)
		hits, K := SequentialTA(d, SumScore, 10)
		want := BruteForceTopK(d, SumScore, 10)
		if len(hits) != 10 {
			t.Fatalf("seed %d: %d hits", seed, len(hits))
		}
		for i := range hits {
			if hits[i].Score != want[i].Score {
				t.Errorf("seed %d rank %d: score %v, want %v", seed, i, hits[i].Score, want[i].Score)
			}
		}
		if K >= 500 {
			t.Errorf("seed %d: TA scanned all %d rows; early stopping broken", seed, K)
		}
	}
}

func TestSequentialTASmallInputs(t *testing.T) {
	d := NewData(nil, 2)
	hits, _ := SequentialTA(d, SumScore, 3)
	if len(hits) != 0 {
		t.Errorf("empty data produced hits %v", hits)
	}
	d2 := NewData([]Object{{ID: 1, Scores: []float64{0.5, 0.5}}}, 2)
	hits2, _ := SequentialTA(d2, SumScore, 3)
	if len(hits2) != 1 || hits2[0].ID != 1 {
		t.Errorf("singleton data: %v", hits2)
	}
}

// buildDistributed scatters objects over p PEs.
func buildDistributed(seed int64, p, perPE, m int) ([]*Data, *Data) {
	var all []Object
	datas := make([]*Data, p)
	for r := 0; r < p; r++ {
		objs := GenObjects(xrand.NewPE(seed, r), perPE, m, uint64(r)<<32)
		datas[r] = NewData(objs, m)
		all = append(all, objs...)
	}
	return datas, NewData(all, m)
}

func TestDTAHitsContainTrueTopK(t *testing.T) {
	for _, p := range []int{1, 3, 4, 8} {
		const perPE = 400
		const m = 3
		const k = 12
		datas, global := buildDistributed(7, p, perPE, m)
		want := BruteForceTopK(global, SumScore, k)
		mach := comm.NewMachine(comm.DefaultConfig(p))
		hitsByPE := make([][]Hit, p)
		var res DTAResult
		mach.MustRun(func(pe *comm.PE) {
			r := DTA(pe, datas[pe.Rank()], SumScore, k, xrand.NewPE(11, pe.Rank()))
			hitsByPE[pe.Rank()] = r.Hits
			if pe.Rank() == 0 {
				res = r
			}
		})
		union := map[uint64]bool{}
		for _, hs := range hitsByPE {
			for _, h := range hs {
				union[h.ID] = true
			}
		}
		missed := 0
		for _, w := range want {
			if !union[w.ID] {
				missed++
			}
		}
		if missed > 0 {
			t.Errorf("p=%d: DTA hits miss %d of the true top-%d", p, missed, k)
		}
		// Sanity on the scan-depth guess: K should stay well below n.
		if res.K >= int64(p*perPE) {
			t.Logf("p=%d: DTA escalated to full scan (K=%d)", p, res.K)
		}
	}
}

func TestDTATopKExact(t *testing.T) {
	for _, p := range []int{1, 4, 6} {
		const perPE = 300
		const k = 10
		datas, global := buildDistributed(13, p, perPE, 2)
		want := BruteForceTopK(global, SumScore, k)
		mach := comm.NewMachine(comm.DefaultConfig(p))
		outByPE := make([][]Hit, p)
		mach.MustRun(func(pe *comm.PE) {
			out, _ := TopK(pe, datas[pe.Rank()], SumScore, k, xrand.NewPE(17, pe.Rank()))
			outByPE[pe.Rank()] = out
		})
		var all []Hit
		for _, hs := range outByPE {
			all = append(all, hs...)
		}
		if len(all) != k {
			t.Fatalf("p=%d: TopK returned %d hits, want %d", p, len(all), k)
		}
		gotScores := map[uint64]float64{}
		for _, h := range all {
			gotScores[h.ID] = h.Score
		}
		for _, w := range want {
			if _, ok := gotScores[w.ID]; !ok {
				t.Errorf("p=%d: missing top-k object %d (score %v)", p, w.ID, w.Score)
			}
		}
	}
}

func TestRDTAMatchesBruteForce(t *testing.T) {
	// RDTA assumes random placement, which GenObjects' independent
	// uniform draws satisfy.
	for _, p := range []int{1, 4, 7} {
		const perPE = 300
		const k = 9
		datas, global := buildDistributed(19, p, perPE, 3)
		want := BruteForceTopK(global, SumScore, k)
		mach := comm.NewMachine(comm.DefaultConfig(p))
		outByPE := make([][]Hit, p)
		mach.MustRun(func(pe *comm.PE) {
			outByPE[pe.Rank()] = RDTA(pe, datas[pe.Rank()], SumScore, k, xrand.NewPE(23, pe.Rank()))
		})
		var all []Hit
		for _, hs := range outByPE {
			all = append(all, hs...)
		}
		if len(all) != k {
			t.Fatalf("p=%d: RDTA returned %d hits, want %d", p, len(all), k)
		}
		wantIDs := map[uint64]bool{}
		for _, w := range want {
			wantIDs[w.ID] = true
		}
		for _, h := range all {
			if !wantIDs[h.ID] {
				t.Errorf("p=%d: RDTA returned non-top-k object %d (score %v, k-th %v)",
					p, h.ID, h.Score, want[k-1].Score)
			}
		}
	}
}

func TestDTAPolylogCommunication(t *testing.T) {
	// Theorem 6: communication O(βm logK + α log p logK) — bottleneck
	// volume must be tiny relative to the input.
	const p = 8
	const perPE = 2000
	datas, _ := buildDistributed(29, p, perPE, 3)
	mach := comm.NewMachine(comm.DefaultConfig(p))
	mach.MustRun(func(pe *comm.PE) {
		DTA(pe, datas[pe.Rank()], SumScore, 16, xrand.NewPE(31, pe.Rank()))
	})
	if words := mach.Stats().MaxSentWords; words > perPE/2 {
		t.Errorf("DTA moved %d words per PE on n/p=%d input", words, perPE)
	}
}

func TestMonotoneScoreFuncs(t *testing.T) {
	// A different monotone aggregate: weighted max.
	wmax := func(scores []float64) float64 {
		best := 0.0
		for i, s := range scores {
			v := s * float64(i+1)
			if v > best {
				best = v
			}
		}
		return best
	}
	const p = 4
	datas, global := buildDistributed(37, p, 200, 3)
	want := BruteForceTopK(global, wmax, 5)
	mach := comm.NewMachine(comm.DefaultConfig(p))
	union := map[uint64]bool{}
	hitsByPE := make([][]Hit, p)
	mach.MustRun(func(pe *comm.PE) {
		r := DTA(pe, datas[pe.Rank()], wmax, 5, xrand.NewPE(41, pe.Rank()))
		hitsByPE[pe.Rank()] = r.Hits
	})
	for _, hs := range hitsByPE {
		for _, h := range hs {
			union[h.ID] = true
		}
	}
	for _, w := range want {
		if !union[w.ID] {
			t.Errorf("weighted-max top-5 object %d missed", w.ID)
		}
	}
}

func TestNewDataValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("score arity mismatch should panic")
		}
	}()
	NewData([]Object{{ID: 1, Scores: []float64{1}}}, 2)
}

func TestDataAccessors(t *testing.T) {
	objs := []Object{{ID: 5, Scores: []float64{0.3, 0.9}}, {ID: 6, Scores: []float64{0.8, 0.1}}}
	d := NewData(objs, 2)
	if d.NumObjects() != 2 || d.M() != 2 {
		t.Error("accessors wrong")
	}
	if s, ok := d.Score(5, SumScore); !ok || math.Abs(s-1.2) > 1e-12 {
		t.Errorf("Score(5) = %v,%v", s, ok)
	}
	if _, ok := d.Score(99, SumScore); ok {
		t.Error("missing object reported present")
	}
	// List 0 must rank 6 (0.8) before 5 (0.3).
	if d.ids[d.lists[0][0].pos] != 6 || d.ids[d.lists[1][0].pos] != 5 {
		t.Error("list ordering wrong")
	}
}

// TestDTAOneSelectionPerProbe: a probe's m list selections are the lanes
// of one selection (no size sum: every list has the n DTA has summed),
// and the probes that cannot pass (mK < k) are not run. On these
// fixtures DTA's bottleneck startups are at most half of what m
// selections one after another, each with its own size sum, sent from
// K = k/(mp)+1 on: the recorded values. The hits still contain the top-k.
func TestDTAOneSelectionPerProbe(t *testing.T) {
	for _, c := range []struct {
		p, perPE, m, k int
		before         int64 // MaxSends of the per-list selections
	}{
		{8, 2000, 3, 16, 579},
		{16, 2048, 4, 32, 1256},
	} {
		datas, global := buildDistributed(29, c.p, c.perPE, c.m)
		mach := comm.NewMachine(comm.DefaultConfig(c.p))
		union := map[uint64]bool{}
		hitsByPE := make([][]Hit, c.p)
		var res DTAResult
		mach.MustRun(func(pe *comm.PE) {
			r := DTA(pe, datas[pe.Rank()], SumScore, c.k, xrand.NewPE(31, pe.Rank()))
			hitsByPE[pe.Rank()] = r.Hits
			if pe.Rank() == 0 {
				res = r
			}
		})
		sends := mach.Stats().MaxSends
		mach.Close()
		t.Logf("p=%d m=%d k=%d: %d messages per PE, %d before", c.p, c.m, c.k, sends, c.before)
		if 2*sends > c.before {
			t.Errorf("p=%d m=%d k=%d: DTA sent %d messages per PE, want at most half of %d", c.p, c.m, c.k, sends, c.before)
		}
		// The rounds run are the doubling steps from the first depth with
		// mK ≥ k up to the depth found.
		start := int64(c.k/(c.m*c.p) + 1)
		for int64(c.m)*start < int64(c.k) {
			start *= 2
		}
		if want := bits.Len64(uint64(res.K / start)); res.Rounds != want {
			t.Errorf("p=%d: %d rounds to K = %d, want %d from K = %d", c.p, res.Rounds, res.K, want, start)
		}
		for _, hs := range hitsByPE {
			for _, h := range hs {
				union[h.ID] = true
			}
		}
		for _, w := range BruteForceTopK(global, SumScore, c.k) {
			if !union[w.ID] {
				t.Errorf("p=%d: DTA hits miss top-k object %d", c.p, w.ID)
			}
		}
	}
}
