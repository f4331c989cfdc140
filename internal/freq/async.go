package freq

import (
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

func addI64(a, b int64) int64 { return a + b }

// pacStep phases.
const (
	fphInit      = iota // start the global input-size sum
	fphNWait            // harvest n; sample locally, start sample-size sum
	fphSizeWait         // harvest sample size; start DHT routing
	fphShardWait        // harvest owned shard; start top-k selection
	fphTopWait          // harvest top-k; scale, sort, finish
	fphDone
)

// pacStep is the continuation form of PAC — Bernoulli sampling,
// distributed hashing and unsorted selection on sample counts as a
// pooled state machine over the dht steppers, so serve's TopKFreq
// queries interleave under comm.RunAsync. The blocking PAC drives this
// machine through comm.RunSteps: bit-identical results, RNG consumption
// and meters in both forms.
type pacStep struct {
	local []uint64
	p     Params
	rng   *xrand.RNG
	out   func(Result)
	self  bool

	n     int64
	runs  []dht.KV // the sample's count runs, routed; survives pooling
	shard *[]dht.KV
	res   Result

	cur     comm.Stepper
	onN     func(int64)
	onSize  func(int64)
	onShard func(*[]dht.KV)
	onTop   func([]dht.KV)
	phase   int
}

func newPACStep(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG, out func(Result), self bool) *pacStep {
	p.validate()
	s := comm.GetPooled[pacStep](pe)
	s.local, s.p, s.rng, s.out, s.self = local, p, rng, out, self
	s.res = Result{}
	s.phase = fphInit
	s.cur = nil
	if s.onN == nil {
		s.onN = func(v int64) { s.n = v }
		s.onSize = func(v int64) { s.res.SampleSize = v }
		s.onShard = func(sh *[]dht.KV) { s.shard = sh }
		s.onTop = func(top []dht.KV) { s.res.Items = top }
	}
	return s
}

// PACStep is the continuation form of PAC: out (optional) receives the
// (ε, δ)-approximate top-k. Collective; interleaves with unrelated
// steppers under comm.RunAsync.
func PACStep(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG, out func(Result)) comm.Stepper {
	return newPACStep(pe, local, p, rng, out, true)
}

func (s *pacStep) finish(pe *comm.PE) *comm.RecvHandle {
	s.phase = fphDone
	if s.self {
		res, out := s.res, s.out
		s.release(pe)
		if out != nil {
			out(res)
		}
	}
	return nil
}

func (s *pacStep) release(pe *comm.PE) {
	s.local, s.rng, s.out, s.cur = nil, nil, nil, nil
	s.shard = nil
	s.res = Result{}
	comm.PutPooled(pe, s)
}

func (s *pacStep) Step(pe *comm.PE) *comm.RecvHandle {
	for {
		if s.cur != nil {
			if h := s.cur.Step(pe); h != nil {
				return h
			}
			s.cur = nil
		}
		switch s.phase {
		case fphInit:
			s.cur = coll.AllReduceScalarStep(pe, int64(len(s.local)), addI64, s.onN)
			s.phase = fphNWait
		case fphNWait:
			s.res.Rho = min(1, stats.PACSampleSize(s.n, s.p.K, s.p.Eps, s.p.Delta)/float64(s.n))
			var size int64
			s.runs, size = sampleCounts(s.local, s.res.Rho, s.rng, s.runs)
			s.cur = coll.AllReduceScalarStep(pe, size, addI64, s.onSize)
			s.phase = fphSizeWait
		case fphSizeWait:
			s.cur = dht.CountKVStep(pe, s.runs, dht.RouteHypercube, s.onShard)
			s.phase = fphShardWait
		case fphShardWait:
			s.cur = dht.SelectTopKStep(pe, *s.shard, s.p.K, s.rng, s.onTop)
			commbuf.Put(s.shard)
			s.shard = nil
			s.phase = fphTopWait
		case fphTopWait:
			for i := range s.res.Items {
				s.res.Items[i].Count = int64(float64(s.res.Items[i].Count)/s.res.Rho + 0.5)
			}
			dht.SortKVDesc(s.res.Items)
			s.res.Exact = s.res.Rho >= 1
			return s.finish(pe)
		default:
			return nil
		}
	}
}
