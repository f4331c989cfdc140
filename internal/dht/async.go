package dht

import (
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/qsel"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// Continuation forms of the DHT collectives, following the
// sel.KthStep template: pooled per-PE state (comm.GetPooled), cached
// result-delivery closures built once per pooled object, sub-steppers
// driven to completion through the cur slot, and blocking forms that
// drive the same engines through comm.RunSteps — one implementation,
// both execution modes, bit-identical results and meters.

// countKVStep — see CountKVStep.
type countKVStep struct {
	out   func(*[]KV)
	shard *[]KV
	p     int
	cur   comm.Stepper

	// Cached closures (built once per pooled object; they capture only s
	// and read the live fields at call time).
	visit  func(src int, part []KV)
	destFn func(kv KV) int
	onHeld func(held []KV)
}

// CountKVStep is the continuation form of CountKV: out receives, on each
// PE, the global counts of the keys it owns as runs in a pooled buffer
// the receiver returns with commbuf.Put. Under RouteHypercube the held
// batch after every exchange is the kept part and the received part, two
// runs, and SumKVs folds it back into one; under RouteDirect the owner
// sums the concatenated received parts once. The routed batches are
// consumed borrowed (no caller-owned clones); the metered schedule
// matches CountKV exactly — the blocking form is this stepper driven with
// blocking waits.
func CountKVStep(pe *comm.PE, items []KV, mode RouteMode, out func(*[]KV)) comm.Stepper {
	s := comm.GetPooled[countKVStep](pe)
	s.out = out
	s.shard = commbuf.GetCap[KV](len(items))
	s.p = pe.P()
	if s.visit == nil {
		s.visit = func(_ int, part []KV) { s.onHeld(part) }
		s.destFn = func(kv KV) int { return Owner(kv.Key, s.p) }
		s.onHeld = func(held []KV) { *s.shard = append(*s.shard, held...) }
	}
	switch mode {
	case RouteDirect:
		parts := make([][]KV, s.p)
		for _, kv := range items {
			d := Owner(kv.Key, s.p)
			parts[d] = append(parts[d], kv)
		}
		s.cur = coll.AllToAllStep(pe, parts, s.visit)
	case RouteHypercube:
		s.cur = coll.RouteCombineStep(pe, items, s.destFn, SumKVs, s.onHeld)
	default:
		panic("dht: unknown route mode")
	}
	return s
}

func (s *countKVStep) Step(pe *comm.PE) *comm.RecvHandle {
	if h := s.cur.Step(pe); h != nil {
		return h
	}
	out, shard := s.out, s.shard
	*shard = SumKVs(*shard)
	s.out, s.shard, s.cur = nil, nil, nil
	comm.PutPooled(pe, s)
	if out != nil {
		out(shard)
	}
	return nil
}

// selectTopKStep phases.
const (
	tphInit       = iota // start the global size sum
	tphTotalWait         // harvest total; branch small-gather vs selection
	tphSmallWait         // total ≤ k: harvest the full gather
	tphKthWait           // harvest the threshold; band the local entries
	tphNAboveWait        // harvest the strictly-above count; start the tie scan
	tphPrevWait          // harvest the tie prefix; start the result gather
	tphGatherWait        // harvest the selected entries
	tphDone
)

// selectTopKStep — see SelectTopKStep.
type selectTopKStep struct {
	pe   *comm.PE
	k    int
	rng  *xrand.RNG
	out  func([]KV)
	self bool
	res  []KV

	// Buffers that survive pooling: the shard's runs (reordered in place),
	// their complemented counts and the tie band's staging copy.
	items []KV
	ords  []uint64
	tied  []KV

	i64   int64
	thr   uint64
	nSel  int
	nTied int
	nAb   int64

	cur comm.Stepper

	onI64 func(int64)
	onThr func(uint64)
	onAll func([]KV)

	phase int
}

func newSelectTopKStep(pe *comm.PE, shard []KV, k int, rng *xrand.RNG, out func([]KV), self bool) *selectTopKStep {
	s := comm.GetPooled[selectTopKStep](pe)
	s.pe = pe
	s.items = append(s.items[:0], shard...)
	s.k, s.rng, s.out, s.self = k, rng, out, self
	s.phase = tphInit
	s.cur = nil
	if s.onI64 == nil {
		s.onI64 = func(v int64) { s.i64 = v }
		s.onThr = func(v uint64) { s.thr = v }
		s.onAll = func(got []KV) {
			// The gathered concatenation is a borrowed pooled buffer; the
			// result is caller-owned (matching the blocking AllGatherConcat
			// contract), so materialize a fresh copy.
			r := make([]KV, len(got))
			copy(r, got)
			s.res = r
		}
	}
	return s
}

// SelectTopKStep is the continuation form of SelectTopK: out receives
// the k highest-count entries of the sharded count runs on every PE,
// caller-owned and sorted by SortKVDesc. The shard is read at
// construction time (into the stepper's own buffer), so it may be
// released once the factory returns. Semantics, RNG consumption and the
// metered schedule match SelectTopK exactly.
func SelectTopKStep(pe *comm.PE, shard []KV, k int, rng *xrand.RNG, out func([]KV)) comm.Stepper {
	return newSelectTopKStep(pe, shard, k, rng, out, true)
}

func (s *selectTopKStep) release(pe *comm.PE) {
	s.pe, s.res = nil, nil
	s.rng, s.out, s.cur = nil, nil, nil
	comm.PutPooled(pe, s)
}

func (s *selectTopKStep) finish(pe *comm.PE, v []KV) *comm.RecvHandle {
	s.res = v
	s.phase = tphDone
	if s.self {
		out := s.out
		s.release(pe)
		if out != nil {
			out(v)
		}
	}
	return nil
}

func addI64(a, b int64) int64 { return a + b }

func (s *selectTopKStep) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case tphInit:
			ords := s.ords[:0]
			for _, it := range s.items {
				ords = append(ords, ^uint64(it.Count))
			}
			s.ords = ords
			s.cur = coll.AllReduceScalarStep(pe, int64(len(s.items)), addI64, s.onI64)
			s.phase = tphTotalWait
		case tphTotalWait:
			total := s.i64
			if total == 0 {
				return s.finish(pe, nil)
			}
			if total <= int64(s.k) {
				s.cur = coll.AllGatherConcatStep(pe, s.items, s.onAll)
				s.phase = tphSmallWait
				continue
			}
			s.cur = sel.KthNStep(pe, s.ords, total, int64(s.k), s.rng, s.onThr)
			s.phase = tphKthWait
		case tphSmallWait:
			SortKVDesc(s.res)
			return s.finish(pe, s.res)
		case tphKthWait:
			// Band the local entries around the selected threshold: the
			// rank of the threshold in the complemented-count multiset
			// splits them into a strictly-above band and a tie band,
			// compressed forward in one pass. The pass keeps the runs'
			// order, so the tie band ascends by key.
			thrCount := int64(^s.thr)
			nSel, nTied := qsel.Rank(s.ords, s.thr)
			tiedTmp := s.tied[:0]
			items := s.items
			w := 0
			for _, it := range items {
				if it.Count > thrCount {
					items[w] = it
					w++
				} else if it.Count == thrCount {
					tiedTmp = append(tiedTmp, it)
				}
			}
			copy(items[nSel:], tiedTmp)
			s.tied = tiedTmp
			s.nSel, s.nTied = nSel, nTied
			s.cur = coll.AllReduceScalarStep(pe, int64(nSel), addI64, s.onI64)
			s.phase = tphNAboveWait
		case tphNAboveWait:
			s.nAb = s.i64
			s.cur = coll.ExScanSumStep(pe, int64(s.nTied), s.onI64)
			s.phase = tphPrevWait
		case tphPrevWait:
			prevTies := s.i64
			needTies := int64(s.k) - s.nAb
			take := min(max(needTies-prevTies, 0), int64(s.nTied))
			s.cur = coll.AllGatherConcatStep(pe, s.items[:s.nSel+int(take)], s.onAll)
			s.phase = tphGatherWait
		case tphGatherWait:
			SortKVDesc(s.res)
			return s.finish(pe, s.res)
		default:
			return nil
		}
	}
}
