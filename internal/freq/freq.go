// Package freq implements the top-k most frequent objects algorithms of
// Section 7 of the paper and the two centralized baselines of the
// evaluation (Section 10.2):
//
//   - PAC — the basic probably-approximately-correct algorithm
//     (Section 7.1, Theorem 7): Bernoulli sampling, distributed hashing,
//     unsorted selection on sample counts. Sample size Θ(ε⁻² log(k/δ)).
//   - EC — exact counting of the k* most frequently sampled objects
//     (Section 7.2, Theorem 11): sample size Θ(ε⁻¹ ...) with the
//     communication-optimal k*.
//   - PEC — probably exactly correct for gapped distributions
//     (Section 7.3, Lemma 12/Theorem 13) and the Zipf closed form
//     (Theorem 14).
//   - Naive / NaiveTree — the evaluation's centralized baselines: same
//     sample, but gathered at a coordinator (directly, resp. via an
//     aggregating tree reduction).
//
// All algorithms are SPMD collectives over the machine in internal/comm.
package freq

import (
	"fmt"
	"math"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/gen"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

// Params configures a frequent-objects query.
type Params struct {
	// K is the number of objects to return.
	K int
	// Eps is the relative error bound ε (error is measured in units of n,
	// the paper's ε̃ definition).
	Eps float64
	// Delta is the failure probability δ.
	Delta float64
	// Route selects DHT insertion routing (default hypercube).
	Route dht.RouteMode
	// KStarOverride, if positive, fixes EC's exactly-counted candidate
	// count instead of the volume-optimal choice of Theorem 11.
	KStarOverride int
}

func (p Params) validate() {
	if p.K < 1 || p.Eps <= 0 || p.Delta <= 0 || p.Delta >= 1 {
		panic(fmt.Sprintf("freq: invalid params %+v", p))
	}
}

// Result is the outcome of a frequent-objects query; identical on all PEs.
type Result struct {
	// Items are the top-k objects, most frequent first. Counts are
	// estimates scaled by 1/ρ unless Exact is true.
	Items []dht.KV
	// SampleSize is the realized global sample size.
	SampleSize int64
	// Rho is the sampling probability used.
	Rho float64
	// KStar is the exactly counted candidate count (EC/PEC; 0 for PAC).
	KStar int
	// Exact reports whether Items carry exact global counts.
	Exact bool
}

// sampleCounts draws a Bernoulli(rho) sample of the local input and
// aggregates it by key (the Section 7.4 local-aggregation refinement)
// into a pooled count table the caller must Release. The input scan
// order fixes both the RNG consumption and the table's iteration order,
// so downstream candidate sets are deterministic per seed.
func sampleCounts(local []uint64, rho float64, rng *xrand.RNG) *dht.Table {
	agg := dht.NewTable(0)
	if rho >= 1 {
		for _, x := range local {
			agg.Add(x, 1)
		}
		return agg
	}
	s := xrand.NewSkipSampler(rng, rho)
	for idx := s.Next(); idx < int64(len(local)); idx = s.Next() {
		agg.Add(local[idx], 1)
	}
	return agg
}

// countShard routes a sampled count table into the DHT and returns the
// owned shard as a pooled table (caller releases).
func countShard(pe *comm.PE, agg *dht.Table, route dht.RouteMode) *dht.Table {
	return dht.CountKV(pe, agg.AppendKVs(make([]dht.KV, 0, agg.Len())), route)
}

// PAC computes an (ε, δ)-approximation of the top-k most frequent objects
// (Section 7.1). Expected time O(n/p·ρ + β·(log p/(pε²))·log(k/δ) + α log n).
// Collective. Blocking driver over the same state machine PACStep
// exposes for comm.RunAsync.
func PAC(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
	st := newPACStep(pe, local, p, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}

// EC computes an (ε, δ)-approximation using exact counting of the k* most
// frequently sampled objects (Section 7.2, Theorem 11): smaller sample
// (linear in 1/ε), two extra all-gather/reduction rounds, local counting
// pass. Collective. Blocking driver over the ECStep state machine.
func EC(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
	st := newECStep(pe, local, p, 0, 0, false, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}

// ecCore is the shared EC machinery with caller-fixed k* and ρ: sample
// at rho, select the kStar most sampled, count them exactly, return the
// exact top-k among them.
func ecCore(pe *comm.PE, local []uint64, p Params, kStar int, rho float64, rng *xrand.RNG) Result {
	st := newECStep(pe, local, p, kStar, rho, true, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}

func candidateKeys(items []dht.KV) []uint64 {
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// countExactly counts the given candidate keys exactly over the whole
// input: the identities travel by all-gather (already done by the caller's
// selection), each PE scans its local input once (O(n/p)), and a
// vector-valued sum reduction produces global counts on all PEs —
// O(β·k* + α log p) communication. The keys slice must be identical on
// all PEs. Results are sorted by count descending.
func countExactly(pe *comm.PE, local []uint64, keys []uint64) []dht.KV {
	if len(keys) == 0 {
		return nil
	}
	// Candidate index as a pooled table (key → position) — the counting
	// scan is the EC query path's hottest local loop, and the open
	// addressing both avoids the Go-map churn and probes faster at these
	// sizes (k* entries).
	index := dht.NewTable(len(keys))
	for i, k := range keys {
		index.Set(k, int64(i))
	}
	counts := make([]int64, len(keys))
	for _, x := range local {
		if i, ok := index.Get(x); ok {
			counts[i]++
		}
	}
	index.Release()
	global := coll.AllReduce(pe, counts, func(a, b int64) int64 { return a + b })
	out := make([]dht.KV, len(keys))
	for i, k := range keys {
		out[i] = dht.KV{Key: k, Count: global[i]}
	}
	dht.SortKVDesc(out)
	return out
}

// PEC computes a probably exactly correct result for distributions with a
// frequency gap (Section 7.3): a first small sample (error tolerance
// eps0) estimates the distribution, Lemma 12 chooses k*, and the EC
// machinery counts those candidates exactly. If no usable gap is detected
// the first-stage sample is returned as a PAC-quality approximation
// (Exact=false), per the Section 7.4 adaptive-two-pass refinement.
// Collective.
func PEC(pe *comm.PE, local []uint64, p Params, eps0 float64, rng *xrand.RNG) Result {
	p.validate()
	if eps0 <= 0 {
		panic("freq: PEC needs a positive first-stage tolerance eps0")
	}
	n := coll.SumAll(pe, int64(len(local)))
	rho0 := min(1, stats.PACSampleSize(n, p.K, eps0, p.Delta)/float64(n))
	agg := sampleCounts(local, rho0, rng)
	stage1Size := coll.SumAll(pe, agg.Total())
	shard := countShard(pe, agg, p.Route)
	agg.Release()

	// Inspect the head of the sampled frequency distribution.
	m := max(4*p.K, 64)
	head := dht.SelectTopKTable(pe, shard, m, rng)
	shard.Release()
	countsDesc := make([]int64, len(head))
	for i, it := range head {
		countsDesc[i] = it.Count
	}
	kStar, ok := stats.PECKStarFromSample(countsDesc, p.K, p.Delta)
	if !ok {
		// No exploitable gap: return the first-stage estimate.
		top := head
		if len(top) > p.K {
			top = top[:p.K]
		}
		items := make([]dht.KV, len(top))
		for i, it := range top {
			items[i] = dht.KV{Key: it.Key, Count: int64(float64(it.Count)/rho0 + 0.5)}
		}
		return Result{Items: items, SampleSize: stage1Size, Rho: rho0, Exact: rho0 >= 1}
	}
	// Gap found: exactly count the k* head candidates (they are already
	// selected from the first sample; no second sampling pass is needed
	// because stage 1 used the conservative PAC rate).
	if kStar > len(head) {
		kStar = len(head)
	}
	exact := countExactly(pe, local, candidateKeys(head[:kStar]))
	if len(exact) > p.K {
		exact = exact[:p.K]
	}
	return Result{Items: exact, SampleSize: stage1Size, Rho: rho0, KStar: kStar, Exact: true}
}

// PECZipf is the Theorem 14 closed form: for inputs known to follow
// Zipf(s) over the given universe, the first sample is unnecessary — the
// sample size 4·k^s·H_{N,s}·ln(k/δ) and k* = (2+√2)^(1/s)·k are computed
// directly. Collective.
func PECZipf(pe *comm.PE, local []uint64, k int, s float64, universe int64, delta float64, rng *xrand.RNG) Result {
	if k < 1 || s <= 0 || delta <= 0 || delta >= 1 {
		panic("freq: invalid PECZipf parameters")
	}
	n := coll.SumAll(pe, int64(len(local)))
	hns := gen.HarmonicGeneralized(universe, s)
	rho := min(1, stats.ZipfPECSampleSize(k, s, hns, delta)/float64(n))
	kStar := int(float64(k)*math.Pow(2+math.Sqrt2, 1/s)) + 1
	p := Params{K: k, Eps: 1, Delta: delta} // Eps unused on this path
	return ecCore(pe, local, p, kStar, rho, rng)
}

// ---------------------------------------------------------------------------
// Centralized baselines (Section 10.2)
// ---------------------------------------------------------------------------

// Naive is the first baseline: every PE sends its aggregated local sample
// directly to a coordinator, which selects the top-k and broadcasts it.
// The coordinator receives p−1 messages — the Θ(p) bottleneck the
// evaluation exposes. Collective.
func Naive(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
	p.validate()
	n := coll.SumAll(pe, int64(len(local)))
	rho := min(1, stats.PACSampleSize(n, p.K, p.Eps, p.Delta)/float64(n))
	agg := sampleCounts(local, rho, rng)
	sampleSize := coll.SumAll(pe, agg.Total())

	// Direct delivery to the coordinator: rank 0 receives p-1 messages.
	tag := pe.NextCollTag()
	var top []dht.KV
	if pe.Rank() == 0 {
		for src := 1; src < pe.P(); src++ {
			rx, _ := pe.Recv(src, tag)
			for _, kv := range rx.([]dht.KV) {
				agg.Add(kv.Key, kv.Count)
			}
		}
		top = topKLocal(agg, p.K)
	} else {
		out := agg.AppendKVs(make([]dht.KV, 0, agg.Len()))
		pe.Send(0, tag, out, int64(len(out))*coll.WordsOf[dht.KV]())
	}
	agg.Release()
	top = coll.Broadcast(pe, 0, top)
	items := make([]dht.KV, len(top))
	for i, it := range top {
		items[i] = dht.KV{Key: it.Key, Count: int64(float64(it.Count)/rho + 0.5)}
	}
	return Result{Items: items, SampleSize: sampleSize, Rho: rho, Exact: rho >= 1}
}

// NaiveTree is the second baseline: identical sample, but the aggregated
// counts flow to the coordinator along a binomial tree that merges count
// tables at every step (latency O(log p), but the volume near the root
// still grows with the distinct-key count). Collective.
func NaiveTree(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
	p.validate()
	n := coll.SumAll(pe, int64(len(local)))
	rho := min(1, stats.PACSampleSize(n, p.K, p.Eps, p.Delta)/float64(n))
	agg := sampleCounts(local, rho, rng)
	sampleSize := coll.SumAll(pe, agg.Total())

	merged := treeReduceCounts(pe, agg)
	var top []dht.KV
	if pe.Rank() == 0 {
		top = topKLocal(merged, p.K)
	}
	agg.Release()
	top = coll.Broadcast(pe, 0, top)
	items := make([]dht.KV, len(top))
	for i, it := range top {
		items[i] = dht.KV{Key: it.Key, Count: int64(float64(it.Count)/rho + 0.5)}
	}
	return Result{Items: items, SampleSize: sampleSize, Rho: rho, Exact: rho >= 1}
}

// treeReduceCounts merges count tables up a binomial tree rooted at 0,
// accumulating directly into acc (consumed); the root returns the global
// table (acc itself), others nil.
func treeReduceCounts(pe *comm.PE, acc *dht.Table) *dht.Table {
	p := pe.P()
	if p == 1 {
		return acc
	}
	tag := pe.NextCollTag()
	vr := pe.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			out := acc.AppendKVs(make([]dht.KV, 0, acc.Len()))
			pe.Send(vr&^mask, tag, out, int64(len(out))*coll.WordsOf[dht.KV]())
			return nil
		}
		src := vr | mask
		if src < p {
			rx, _ := pe.Recv(src, tag)
			for _, kv := range rx.([]dht.KV) {
				acc.Add(kv.Key, kv.Count)
			}
		}
	}
	return acc
}

func topKLocal(t *dht.Table, k int) []dht.KV {
	all := t.AppendKVs(make([]dht.KV, 0, t.Len()))
	dht.SortKVDesc(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// ExactTopK computes the exact top-k by fully counting every key through
// the DHT — the ground truth used by tests and experiment scoring (not
// communication-efficient; Θ(distinct keys) volume). Collective.
func ExactTopK(pe *comm.PE, local []uint64, k int, route dht.RouteMode, rng *xrand.RNG) []dht.KV {
	agg := sampleCounts(local, 1, rng)
	shard := countShard(pe, agg, route)
	agg.Release()
	out := dht.SelectTopKTable(pe, shard, k, rng)
	shard.Release()
	return out
}
