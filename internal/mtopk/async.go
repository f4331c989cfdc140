package mtopk

import (
	"math"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// The continuation form of DTA, following the sel.KthStep template:
// pooled per-PE state (comm.GetPooled), cached result-delivery closures
// built once per pooled object, collective sub-steppers driven through
// the cur slot, and a blocking DTAProbed that drives the same machine via
// comm.RunSteps — bit-identical results, RNG consumption and meters. The
// exponential search is re-entrant: every communication round suspends
// as data, so the scaling suite runs DTA under Machine.RunAsync at O(w)
// mid-run goroutines. RDTA and TopK are blocking code only.

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

// dtaStep — see DTAStep and DTAProbed. A round evaluates its scan depths
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
