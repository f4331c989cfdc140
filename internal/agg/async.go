package agg

import (
	"cmp"
	"math"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

func addI64(a, b int64) int64     { return a + b }
func addF64(a, b float64) float64 { return a + b }

// aggStep phases (shared by the PAC and ECSum machines — the two
// algorithms diverge only after the candidate selection).
const (
	aphInit      = iota // start the global pair-count sum
	aphNWait            // harvest n; start the total-mass sum
	aphMWait            // harvest m; sample locally, start sample-size sum
	aphSizeWait         // harvest sample size; start DHT routing
	aphShardWait        // harvest owned shard; start top/candidate selection
	aphTopWait          // PAC: harvest top-k, scale, finish
	aphCandWait         // ECSum: harvest candidates; local lookups, reduction
	aphItemsWait        // ECSum: harvest global sums; sort, truncate, finish
	aphDone
)

// aggStep is the continuation form of PAC and ECSum — Section 8's
// value-proportional sampling, DHT routing and selection as one pooled
// state machine (exact is false for PAC, true for ECSum). The blocking
// forms drive this machine through comm.RunSteps: one implementation,
// both execution modes, bit-identical results, RNG draws and meters.
type aggStep struct {
	keys   []uint64
	values []float64
	p      Params
	rng    *xrand.RNG
	out    func(Result)
	self   bool
	exact  bool // ECSum path (exact summation of k* candidates)

	local  Aggregate // sorted runs in pooled buffers, returned at release
	n      int64
	mTotal float64
	aggKVs []dht.KV
	shard  *[]dht.KV
	cands  []dht.KV
	ids    []uint64
	sums   []float64
	res    Result

	cur      comm.Stepper
	onN      func(int64)
	onM      func(float64)
	onSize   func(int64)
	onShard  func(*[]dht.KV)
	onSel    func([]dht.KV)
	onGlobal func([]float64)
	phase    int
}

func newAggStep(pe *comm.PE, keys []uint64, values []float64, p Params, exact bool, rng *xrand.RNG, out func(Result), self bool) *aggStep {
	p.validate()
	s := comm.GetPooled[aggStep](pe)
	s.keys, s.values, s.p, s.rng, s.out, s.self = keys, values, p, rng, out, self
	s.exact = exact
	s.local = LocalAggregate(keys, values)
	s.res = Result{}
	s.phase = aphInit
	s.cur = nil
	if s.onN == nil {
		s.onN = func(v int64) { s.n = v }
		s.onM = func(v float64) { s.mTotal = v }
		s.onSize = func(v int64) { s.res.SampleSize = v }
		s.onShard = func(sh *[]dht.KV) { s.shard = sh }
		s.onSel = func(c []dht.KV) { s.cands = c }
		s.onGlobal = func(g []float64) { s.sums = append(s.sums[:0], g...) }
	}
	return s
}

// PACStep is the continuation form of PAC: out (optional) receives the
// (ε, δ)-approximate top-k sums. Collective; interleaves with unrelated
// steppers under comm.RunAsync.
func PACStep(pe *comm.PE, keys []uint64, values []float64, p Params, rng *xrand.RNG, out func(Result)) comm.Stepper {
	return newAggStep(pe, keys, values, p, false, rng, out, true)
}

// ECSumStep is the continuation form of ECSum: out (optional) receives
// the exactly summed top-k. Collective.
func ECSumStep(pe *comm.PE, keys []uint64, values []float64, p Params, rng *xrand.RNG, out func(Result)) comm.Stepper {
	return newAggStep(pe, keys, values, p, true, rng, out, true)
}

func (s *aggStep) finish(pe *comm.PE) *comm.RecvHandle {
	s.phase = aphDone
	if s.self {
		res, out := s.res, s.out
		s.release(pe)
		if out != nil {
			out(res)
		}
	}
	return nil
}

func (s *aggStep) release(pe *comm.PE) {
	s.local.Release()
	s.keys, s.values, s.rng, s.out, s.cur = nil, nil, nil, nil, nil
	s.shard = nil
	s.aggKVs, s.cands, s.ids = nil, nil, nil
	s.sums = s.sums[:0]
	s.res = Result{}
	comm.PutPooled(pe, s)
}

func (s *aggStep) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case aphInit:
			s.cur = coll.AllReduceScalarStep(pe, int64(len(s.keys)), addI64, s.onN)
			s.phase = aphNWait
		case aphNWait:
			s.cur = coll.AllReduceScalarStep(pe, s.local.Total(), addF64, s.onM)
			s.phase = aphMWait
		case aphMWait:
			if s.mTotal <= 0 {
				s.res = Result{}
				return s.finish(pe)
			}
			sz := stats.SumAggSampleSize(s.n, pe.P(), s.p.Eps, s.p.Delta)
			if s.exact {
				kStar := s.p.KStarOverride
				if kStar <= 0 {
					kStar = stats.OptimalKStar(s.n, s.p.K, pe.P(), s.p.Eps, s.p.Delta)
				}
				s.res.KStar = kStar
				sz /= math.Sqrt(float64(kStar))
				if sz < float64(4*s.p.K) {
					sz = float64(4 * s.p.K)
				}
			}
			s.res.VAvg = s.mTotal / sz
			var localSize int64
			s.aggKVs, localSize = sampleAggregated(&s.local, s.res.VAvg, s.rng)
			s.cur = coll.AllReduceScalarStep(pe, localSize, addI64, s.onSize)
			s.phase = aphSizeWait
		case aphSizeWait:
			s.cur = dht.CountKVStep(pe, s.aggKVs, dht.RouteHypercube, s.onShard)
			s.phase = aphShardWait
		case aphShardWait:
			sel := s.p.K
			if s.exact {
				sel = s.res.KStar
			}
			s.cur = dht.SelectTopKStep(pe, *s.shard, sel, s.rng, s.onSel)
			commbuf.Put(s.shard)
			s.shard = nil
			if s.exact {
				s.phase = aphCandWait
			} else {
				s.phase = aphTopWait
			}
		case aphTopWait:
			items := make([]ItemSum, len(s.cands))
			for i, kv := range s.cands {
				items[i] = ItemSum{Key: kv.Key, Sum: float64(kv.Count) * s.res.VAvg}
			}
			s.res.Items = items
			return s.finish(pe)
		case aphCandWait:
			s.res.Exact = true
			ids := make([]uint64, len(s.cands))
			for i, kv := range s.cands {
				ids[i] = kv.Key
			}
			slices.Sort(ids)
			s.ids = ids
			if len(ids) == 0 {
				s.res.Items = nil
				return s.finish(pe)
			}
			sums := make([]float64, len(ids))
			for i, id := range ids {
				sums[i], _ = s.local.Get(id)
			}
			s.cur = coll.AllReduceStep(pe, sums, addF64, s.onGlobal)
			s.phase = aphItemsWait
		case aphItemsWait:
			items := make([]ItemSum, len(s.ids))
			for i, id := range s.ids {
				items[i] = ItemSum{Key: id, Sum: s.sums[i]}
			}
			// Keys are unique (one candidate per key), so the order is
			// total: sum descending, then key ascending.
			slices.SortFunc(items, func(a, b ItemSum) int {
				if c := cmp.Compare(b.Sum, a.Sum); c != 0 {
					return c
				}
				return cmp.Compare(a.Key, b.Key)
			})
			if len(items) > s.p.K {
				items = items[:s.p.K]
			}
			s.res.Items = items
			return s.finish(pe)
		default:
			return nil
		}
	}
}
