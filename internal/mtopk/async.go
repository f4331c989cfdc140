package mtopk

import (
	"math"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// Continuation forms of the Section 6 multicriteria algorithms,
// following the sel.KthStep template: pooled per-PE state
// (comm.GetPooled), cached result-delivery closures built once per
// pooled object, collective sub-steppers driven through the cur slot,
// and blocking forms that drive the same engines via comm.RunSteps —
// one implementation, both execution modes, bit-identical results, RNG
// consumption and meters. DTA's exponential search and RDTA's k̂
// doubling loop are re-entrant: every communication round suspends as
// data, so multicriteria queries run under Machine.RunAsync at O(w)
// mid-run goroutines and can ride the serve mux.

func addI64(a, b int64) int64     { return a + b }
func addF64(a, b float64) float64 { return a + b }

// dtaStep phases.
const (
	dphInit    = iota // start the global object-count sum
	dphNWait          // harvest n, start the first round
	dphSelWait        // harvest the round's list thresholds, start the estimate sum
	dphEstWait        // harvest the hit estimates; finish or search on
	dphDone
)

// dtaStep — see DTAStep/DTAProbedStep. A round evaluates its scan depths
// K (its probes) together: the m lists of every probe are the lanes of
// one sel.AMSSelectLanesStep, and one vector sum carries the probes' hit
// estimates.
type dtaStep struct {
	pe     *comm.PE
	d      *Data
	t      ScoreFunc
	k      int
	probes int
	rng    *xrand.RNG
	out    func(DTAResult)
	self   bool
	res    DTAResult

	nGlobal int64
	probe   int64 // the first scan depth on the next round's lattice

	// The round's buffers, m entries per probe: lens is handed out as
	// PrefixLens, so it is fresh every round; the rest survive pooling.
	ks    []int64 // the probes that can pass
	lanes []sel.AMSLane[uint64]
	lens  []int
	xs    []float64
	est   []float64 // local hit estimates, one per probe
	ests  []float64 // their global sums

	i64 int64

	cur comm.Stepper

	onI64  func(int64)
	onEsts func([]float64)

	phase int
}

func newDTAStep(pe *comm.PE, d *Data, t ScoreFunc, k, probes int, rng *xrand.RNG, out func(DTAResult), self bool) *dtaStep {
	if k < 1 {
		panic("mtopk: k must be positive")
	}
	if probes < 1 {
		panic("mtopk: probes must be positive")
	}
	s := comm.GetPooled[dtaStep](pe)
	s.pe = pe
	s.d, s.t, s.k, s.probes, s.rng, s.out, s.self = d, t, k, probes, rng, out, self
	s.phase = dphInit
	s.cur = nil
	s.res = DTAResult{}
	if s.onI64 == nil {
		s.onI64 = func(v int64) { s.i64 = v }
		s.onEsts = func(v []float64) { s.ests = v }
	}
	return s
}

// DTAStep is the continuation form of DTA; out receives the DTAResult on
// every PE.
func DTAStep(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG, out func(DTAResult)) comm.Stepper {
	return newDTAStep(pe, d, t, k, 1, rng, out, true)
}

// DTAProbedStep is the continuation form of DTAProbed.
func DTAProbedStep(pe *comm.PE, d *Data, t ScoreFunc, k, probes int, rng *xrand.RNG, out func(DTAResult)) comm.Stepper {
	return newDTAStep(pe, d, t, k, probes, rng, out, true)
}

func (s *dtaStep) release(pe *comm.PE) {
	s.pe, s.d, s.t, s.rng, s.out, s.cur = nil, nil, nil, nil, nil, nil
	s.res = DTAResult{}
	s.lens = nil
	clear(s.lanes) // drop the Seq references
	comm.PutPooled(pe, s)
}

func (s *dtaStep) finish(pe *comm.PE, v DTAResult) *comm.RecvHandle {
	s.res = v
	s.phase = dphDone
	if s.self {
		out := s.out
		s.release(pe)
		if out != nil {
			out(v)
		}
	}
	return nil
}

// canPass reports whether scan depth K can end the search. Its estimate
// is at most the number of selected list entries, Σᵢ Countᵢ ≤ 2mK, so it
// reaches 2k only if mK ≥ k — unless K covers every object.
func (s *dtaStep) canPass(K int64) bool {
	return K >= s.nGlobal || int64(s.d.m)*K >= int64(s.k)
}

// startRound lays out a round's lattice — probe, 4·probe, … (probes
// depths; the next round starts at twice the last) — and keeps the
// probes that can pass, up to the first that covers every object (a
// larger one cannot be the smallest to pass). A round with none is
// skipped without communication. The kept probes' lists are the lanes
// of one selection.
func (s *dtaStep) startRound(pe *comm.PE) {
	for {
		s.ks = s.ks[:0]
		K := s.probe
		for j := 0; j < s.probes; j++ {
			if j > 0 {
				K *= 4
			}
			if s.canPass(K) && (len(s.ks) == 0 || s.ks[len(s.ks)-1] < s.nGlobal) {
				s.ks = append(s.ks, K)
			}
		}
		s.probe = 2 * K
		if len(s.ks) > 0 {
			break
		}
	}
	s.res.Rounds++
	m := s.d.m
	s.lanes = s.lanes[:0]
	for _, K := range s.ks {
		for i := 0; i < m; i++ {
			// K ≥ n selects the whole list: its lane reduces to the
			// global maximum key, the list's minimum score.
			s.lanes = append(s.lanes, sel.AMSLane[uint64]{
				Seq: sel.SliceSeq[uint64](s.d.ords[i]), KMin: min(K, s.nGlobal), KMax: 2 * K, N: s.nGlobal,
			})
		}
	}
	s.cur = sel.AMSSelectLanesStep[uint64](pe, s.lanes, s.rng)
	s.phase = dphSelWait
}

func (s *dtaStep) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case dphInit:
			s.cur = coll.AllReduceScalarStep(pe, int64(s.d.NumObjects()), addI64, s.onI64)
			s.phase = dphNWait
		case dphNWait:
			s.nGlobal = s.i64
			if s.nGlobal == 0 {
				return s.finish(pe, DTAResult{PrefixLens: make([]int, s.d.m)})
			}
			s.probe = int64(s.k)/(int64(s.d.m)*int64(pe.P())) + 1
			s.startRound(pe)
		case dphSelWait:
			// All list thresholds in hand: estimate each probe's number of
			// hits by sampling its prefixes (rejecting objects already
			// present in an earlier list's prefix to avoid double counting).
			m := s.d.m
			s.lens = make([]int, len(s.lanes))
			s.xs = commbuf.Resize(s.xs[:0], len(s.lanes))
			for j, l := range s.lanes {
				s.lens[j] = min(l.Res.LocalLen, len(s.d.lists[j%m]))
				s.xs[j] = FromOrdDesc(l.Res.Threshold)
			}
			s.est = s.est[:0]
			for j, K := range s.ks {
				lens := s.lens[j*m : (j+1)*m]
				thr := s.t(s.xs[j*m : (j+1)*m])
				y := 4 * int(math.Log2(float64(K)+2))
				var localEst float64
				for i := 0; i < m; i++ {
					pl := lens[i]
					if pl == 0 {
						continue
					}
					var rejected, hits int
					for sm := 0; sm < y; sm++ {
						e := s.d.lists[i][s.rng.Intn(pl)]
						if s.d.inEarlierPrefix(e.pos, i, lens) {
							rejected++
							continue
						}
						if sc := s.t(s.d.scores[e.pos]); sc >= thr {
							hits++
						}
					}
					localEst += float64(pl) * (1 - float64(rejected)/float64(y)) * (float64(hits) / float64(y))
				}
				s.est = append(s.est, localEst)
			}
			s.cur = coll.AllReduceIntoStep(pe, s.ests, s.est, addF64, s.onEsts)
			s.phase = dphEstWait
		case dphEstWait:
			// The smallest probe that passes ends the search.
			m := s.d.m
			for j, K := range s.ks {
				if est := s.ests[j]; est >= 2*float64(s.k) || K >= s.nGlobal {
					s.res.PrefixLens = s.lens[j*m : (j+1)*m : (j+1)*m]
					s.res.Threshold = s.t(s.xs[j*m : (j+1)*m])
					s.res.EstimatedHits = est
					s.res.K = K
					s.res.Hits = s.d.collectHits(s.t, s.res.Threshold, s.res.PrefixLens)
					return s.finish(pe, s.res)
				}
			}
			s.startRound(pe)
		default:
			return nil
		}
	}
}

// rdtaStep phases.
const (
	rphLoop      = iota // run the local TA, start the threshold max
	rphTauWait          // harvest the global threshold, start the count
	rphTotalWait        // harvest the candidate count; verify or double k̂
	rphTakeWait         // harvest the global candidate total
	rphSelWait          // harvest the SmallestK share, grant local hits
	rphDone
)

// rdtaStep — see RDTAStep.
type rdtaStep struct {
	pe   *comm.PE
	d    *Data
	t    ScoreFunc
	k    int
	rng  *xrand.RNG
	out  func([]Hit)
	self bool
	res  []Hit

	kHat      int
	nLocal    int
	localHits []Hit
	ords      []uint64
	selected  []uint64

	i64 int64
	f64 float64

	cur comm.Stepper

	onI64 func(int64)
	onF64 func(float64)
	onSel func([]uint64)

	phase int
}

func newRDTAStep(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG, out func([]Hit), self bool) *rdtaStep {
	s := comm.GetPooled[rdtaStep](pe)
	s.pe = pe
	s.d, s.t, s.k, s.rng, s.out, s.self = d, t, k, rng, out, self
	s.phase = rphLoop
	s.cur = nil
	s.kHat = k/pe.P() + 2*bitLen(pe.P()) + 1
	s.nLocal = d.NumObjects()
	if s.onI64 == nil {
		s.onI64 = func(v int64) { s.i64 = v }
		s.onF64 = func(v float64) { s.f64 = v }
		s.onSel = func(v []uint64) { s.selected = v }
	}
	return s
}

// RDTAStep is the continuation form of RDTA; out receives this PE's
// share of the top-k.
func RDTAStep(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG, out func([]Hit)) comm.Stepper {
	return newRDTAStep(pe, d, t, k, rng, out, true)
}

func (s *rdtaStep) release(pe *comm.PE) {
	s.pe, s.d, s.t, s.rng, s.out, s.cur = nil, nil, nil, nil, nil, nil
	s.res, s.localHits, s.ords, s.selected = nil, nil, nil, nil
	comm.PutPooled(pe, s)
}

func (s *rdtaStep) finish(pe *comm.PE, v []Hit) *comm.RecvHandle {
	s.res = v
	s.phase = rphDone
	if s.self {
		out := s.out
		s.release(pe)
		if out != nil {
			out(v)
		}
	}
	return nil
}

func (s *rdtaStep) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case rphLoop:
			if s.kHat > s.nLocal {
				s.kHat = s.nLocal
			}
			s.localHits, _ = SequentialTA(s.d, s.t, max(s.kHat, 1))
			// Local threshold: worst score this PE can still vouch for (the
			// entire local set scanned means -inf — we have everything).
			tau := math.Inf(-1)
			if len(s.localHits) == s.kHat && s.kHat > 0 {
				tau = s.localHits[len(s.localHits)-1].Score
			}
			s.cur = coll.AllReduceScalarStep(pe, tau, math.Max, s.onF64)
			s.phase = rphTauWait
		case rphTauWait:
			globalTau := s.f64
			var above int64
			for _, h := range s.localHits {
				if h.Score >= globalTau {
					above++
				}
			}
			s.cur = coll.AllReduceScalarStep(pe, above, addI64, s.onI64)
			s.phase = rphTotalWait
		case rphTotalWait:
			total := s.i64
			if total >= int64(s.k) || int64(s.nLocal*pe.P()) <= int64(s.k) || s.kHat >= s.nLocal {
				// Verified (or exhausted): select the top-k among candidates.
				ords := make([]uint64, 0, len(s.localHits))
				for _, h := range s.localHits {
					ords = append(ords, OrdDesc(h.Score))
				}
				s.ords = ords
				s.cur = coll.AllReduceScalarStep(pe, int64(len(ords)), addI64, s.onI64)
				s.phase = rphTakeWait
				continue
			}
			s.kHat *= 2
			s.phase = rphLoop
		case rphTakeWait:
			take := min(int64(s.k), s.i64)
			s.cur = sel.SmallestKStep(pe, s.ords, take, s.rng, s.onSel)
			s.phase = rphSelWait
		case rphSelWait:
			return s.finish(pe, grantHits(s.localHits, s.selected))
		default:
			return nil
		}
	}
}

// topkStep phases.
const (
	kphDTA     = iota // run the DTA sub-machine
	kphSumWait        // harvest the global hit-ord total
	kphSelWait        // harvest the SmallestK share, grant local hits
	kphDone
)

// topkStep — see TopKStep.
type topkStep struct {
	pe   *comm.PE
	d    *Data
	t    ScoreFunc
	k    int
	rng  *xrand.RNG
	out  func([]Hit, DTAResult)
	self bool
	res  []Hit
	dta  DTAResult

	ords     []uint64
	selected []uint64
	i64      int64

	cur comm.Stepper

	onDTA func(DTAResult)
	onI64 func(int64)
	onSel func([]uint64)

	phase int
}

func newTopKStep(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG, out func([]Hit, DTAResult), self bool) *topkStep {
	s := comm.GetPooled[topkStep](pe)
	s.pe = pe
	s.d, s.t, s.k, s.rng, s.out, s.self = d, t, k, rng, out, self
	s.phase = kphDTA
	if s.onDTA == nil {
		s.onDTA = func(v DTAResult) { s.dta = v }
		s.onI64 = func(v int64) { s.i64 = v }
		s.onSel = func(v []uint64) { s.selected = v }
	}
	s.cur = newDTAStep(pe, d, t, k, 1, rng, s.onDTA, true)
	return s
}

// TopKStep is the continuation form of TopK; out receives this PE's
// share of the exact top-k plus the underlying DTAResult.
func TopKStep(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG, out func([]Hit, DTAResult)) comm.Stepper {
	return newTopKStep(pe, d, t, k, rng, out, true)
}

func (s *topkStep) release(pe *comm.PE) {
	s.pe, s.d, s.t, s.rng, s.out, s.cur = nil, nil, nil, nil, nil, nil
	s.res, s.ords, s.selected = nil, nil, nil
	s.dta = DTAResult{}
	comm.PutPooled(pe, s)
}

func (s *topkStep) finish(pe *comm.PE) *comm.RecvHandle {
	s.phase = kphDone
	if s.self {
		out, res, dta := s.out, s.res, s.dta
		s.release(pe)
		if out != nil {
			out(res, dta)
		}
	}
	return nil
}

func (s *topkStep) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case kphDTA:
			ords := make([]uint64, len(s.dta.Hits))
			for i, h := range s.dta.Hits {
				ords[i] = OrdDesc(h.Score)
			}
			s.ords = ords
			s.cur = coll.AllReduceScalarStep(pe, int64(len(ords)), addI64, s.onI64)
			s.phase = kphSumWait
		case kphSumWait:
			take := min(int64(s.k), s.i64)
			s.cur = sel.SmallestKStep(pe, s.ords, take, s.rng, s.onSel)
			s.phase = kphSelWait
		case kphSelWait:
			s.res = grantHits(s.dta.Hits, s.selected)
			return s.finish(pe)
		default:
			return nil
		}
	}
}
