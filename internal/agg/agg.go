// Package agg implements top-k sum aggregation (Section 8 of the paper):
// the input is a multiset of (key, value) pairs with non-negative values,
// and the query asks for the k keys with the largest value sums.
//
// The algorithms carry over from the frequent-objects case with a
// different sampling procedure (Section 8.1): the local input is first
// aggregated per key, and each aggregated value v yields ⌊v/v_avg⌋
// deterministic samples plus one more with probability frac(v/v_avg),
// where v_avg = m/s for total value m and target sample size s. Per key
// and PE the sample count then deviates from its expectation by at most 1,
// which is what the Hoeffding analysis of Theorem 15 needs.
package agg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

// Params configures a top-k sum aggregation query.
type Params struct {
	// K is the number of keys to return.
	K int
	// Eps is the relative error bound (relative to the total sum m).
	Eps float64
	// Delta is the failure probability.
	Delta float64
}

func (p Params) validate() {
	if p.K < 1 || p.Eps <= 0 || p.Delta <= 0 || p.Delta >= 1 {
		panic(fmt.Sprintf("agg: invalid params %+v", p))
	}
}

// ItemSum is one key with its (estimated or exact) global value sum.
type ItemSum struct {
	Key uint64
	Sum float64
}

// Result is the outcome of a sum-aggregation query; identical on all PEs.
type Result struct {
	// Items are the top-k keys by sum, largest first.
	Items []ItemSum
	// SampleSize is the realized global sample size (in sample units).
	SampleSize int64
	// VAvg is the value mass per sample unit.
	VAvg float64
	// Exact reports whether sums are exact.
	Exact bool
	// KStar is the exactly summed candidate count (ECSum only).
	KStar int
}

// Aggregate is one PE's input summed per key — the first step of
// Section 8.1 — as sorted runs: Keys ascending and unique, Sums[i] the
// sum of Keys[i]'s values, added from 0 in input order. Its arrays are
// pooled buffers (internal/commbuf): the owner calls Release when done.
type Aggregate struct {
	Keys  []uint64
	Sums  []float64
	total float64
	kbuf  *[]uint64
	sbuf  *[]float64
}

// LocalAggregate sums values per key (Section 8.1), a useful public
// helper. The run engine dht.SumRuns (one stable radix sort and one
// run-length pass) builds the runs: Theorem 15 needs this step to be
// linear, not a hash table. Stability makes every sum add its values in
// input order, and Total is summed in input order too, so both are the
// bits a per-key hash-table accumulation gives. Negative values panic.
func LocalAggregate(keys []uint64, values []float64) Aggregate {
	if len(keys) != len(values) {
		panic("agg: keys/values length mismatch")
	}
	var a Aggregate
	for _, v := range values {
		if v < 0 {
			panic("agg: negative value")
		}
		a.total += v
	}
	n := len(keys)
	if n == 0 {
		return a
	}
	a.kbuf, a.sbuf = commbuf.Get[uint64](n), commbuf.Get[float64](n)
	kb, sb := commbuf.Get[uint64](n), commbuf.Get[float64](n)
	a.Keys, a.Sums = dht.SumRuns(keys, values, *a.kbuf, *a.sbuf, *kb, *sb)
	// Keep the buffer pair the runs ended in; the other goes back now.
	if &a.Keys[0] == &(*kb)[0] {
		a.kbuf, kb = kb, a.kbuf
		a.sbuf, sb = sb, a.sbuf
	}
	commbuf.Put(kb)
	commbuf.Put(sb)
	return a
}

// Len returns the number of distinct keys.
func (a *Aggregate) Len() int { return len(a.Keys) }

// Total returns the sum of all values, in input order.
func (a *Aggregate) Total() float64 { return a.total }

// Get returns key's sum and whether the key occurs (a binary search).
func (a *Aggregate) Get(key uint64) (float64, bool) {
	i, ok := slices.BinarySearch(a.Keys, key)
	if !ok {
		return 0, false
	}
	return a.Sums[i], true
}

// Release returns the arrays to their pools; a is empty afterwards.
func (a *Aggregate) Release() {
	commbuf.Put(a.kbuf)
	commbuf.Put(a.sbuf)
	*a = Aggregate{}
}

// sampleAggregated converts aggregated values into integer sample counts
// (as KV pairs in ascending key order): floor + Bernoulli residual
// (Section 8.1). Keys are visited in the runs' ascending order, so each
// key's Bernoulli draw is a fixed function of the RNG stream: a layout
// order (a hash table's slots, a Go map's iteration) would let the layout
// decide which key consumed which deviate, making the sampled counts —
// and hence ECSum's candidate set and realized ε̃ — vary between runs
// with identical seeds (the agg.TestECSumIsExact flake). The second
// result is the realized local sample size.
func sampleAggregated(local *Aggregate, vavg float64, rng *xrand.RNG) ([]dht.KV, int64) {
	out := make([]dht.KV, 0, local.Len())
	var total int64
	for i, k := range local.Keys {
		q := local.Sums[i] / vavg
		c := int64(q)
		if rng.Bernoulli(q - float64(c)) {
			c++
		}
		if c > 0 {
			out = append(out, dht.KV{Key: k, Count: c})
			total += c
		}
	}
	return out, total
}

// PAC computes an (ε, δ)-approximation of the top-k highest-summing keys
// (Theorem 15). Collective.
func PAC(pe *comm.PE, keys []uint64, values []float64, p Params, rng *xrand.RNG) Result {
	return topSums(pe, keys, values, p, false, rng)
}

// ECSum is the exact-summation variant (end of Section 8.2): like PAC,
// but the k* highest-sampled candidates are summed exactly — and unlike
// the frequent-objects case, no second input scan is needed: "a lookup in
// the local aggregation result now suffices". Collective.
func ECSum(pe *comm.PE, keys []uint64, values []float64, p Params, rng *xrand.RNG) Result {
	return topSums(pe, keys, values, p, true, rng)
}

// topSums is PAC (exact false) and ECSum (exact true): Section 8's
// value-proportional sampling, DHT routing and selection; the two
// diverge only after the candidate selection.
func topSums(pe *comm.PE, keys []uint64, values []float64, p Params, exact bool, rng *xrand.RNG) Result {
	p.validate()
	local := LocalAggregate(keys, values)
	defer local.Release()
	n := coll.SumAll(pe, int64(len(keys)))
	mTotal := coll.SumAll(pe, local.Total())
	if mTotal <= 0 {
		return Result{}
	}
	var res Result
	sz := stats.SumAggSampleSize(n, pe.P(), p.Eps, p.Delta)
	sel := p.K
	if exact {
		res.KStar = stats.OptimalKStar(n, p.K, pe.P(), p.Eps, p.Delta)
		sel = res.KStar
		sz = max(sz/math.Sqrt(float64(res.KStar)), float64(4*p.K))
	}
	res.VAvg = mTotal / sz
	sample, localSize := sampleAggregated(&local, res.VAvg, rng)
	res.SampleSize = coll.SumAll(pe, localSize)
	shard := dht.CountKV(pe, sample, dht.RouteHypercube)
	cands := dht.SelectTopK(pe, *shard, sel, rng)
	commbuf.Put(shard)
	if !exact {
		res.Items = make([]ItemSum, len(cands))
		for i, kv := range cands {
			res.Items[i] = ItemSum{Key: kv.Key, Sum: float64(kv.Count) * res.VAvg}
		}
		return res
	}

	res.Exact = true
	if len(cands) == 0 {
		return res
	}
	ids := make([]uint64, len(cands))
	for i, kv := range cands {
		ids[i] = kv.Key
	}
	slices.Sort(ids)
	sums := make([]float64, len(ids))
	for i, id := range ids {
		sums[i], _ = local.Get(id)
	}
	sums = coll.AllReduce(pe, sums, addF64)
	items := make([]ItemSum, len(ids))
	for i, id := range ids {
		items[i] = ItemSum{Key: id, Sum: sums[i]}
	}
	// Keys are unique (one candidate per key), so the order is total: sum
	// descending, then key ascending.
	slices.SortFunc(items, func(a, b ItemSum) int {
		if c := cmp.Compare(b.Sum, a.Sum); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	res.Items = items[:min(len(items), p.K)]
	return res
}

func addF64(a, b float64) float64 { return a + b }

// ExactTopSums computes the exact answer through the DHT (ground truth
// for tests; not communication-efficient). Collective.
func ExactTopSums(pe *comm.PE, keys []uint64, values []float64, k int, rng *xrand.RNG) []ItemSum {
	local := LocalAggregate(keys, values)
	defer local.Release()
	// Scale to fixed point so the counting DHT can carry sums; the
	// aggregate's keys ascend, so fixed is count runs.
	const scale = 1 << 20
	fixed := make([]dht.KV, local.Len())
	for i, key := range local.Keys {
		fixed[i] = dht.KV{Key: key, Count: int64(local.Sums[i] * scale)}
	}
	shard := dht.CountKV(pe, fixed, dht.RouteHypercube)
	top := dht.SelectTopK(pe, *shard, k, rng)
	commbuf.Put(shard)
	items := make([]ItemSum, len(top))
	for i, kv := range top {
		items[i] = ItemSum{Key: kv.Key, Sum: float64(kv.Count) / scale}
	}
	return items
}
