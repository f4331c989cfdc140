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
	"commtopk/internal/commbuf"
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
// into count runs, built in dst's backing array. The skip sampler draws
// over input positions, so the RNG consumption is a function of the input
// alone. The second result is the realized local sample size.
func sampleCounts(local []uint64, rho float64, rng *xrand.RNG, dst []dht.KV) ([]dht.KV, int64) {
	if rho >= 1 {
		return dht.CountRuns(local, dst), int64(len(local))
	}
	b := commbuf.GetCap[uint64](int(rho*float64(len(local))) + 16)
	sample := *b
	s := xrand.NewSkipSampler(rng, rho)
	for idx := s.Next(); idx < int64(len(local)); idx = s.Next() {
		sample = append(sample, local[idx])
	}
	dst = dht.CountRuns(sample, dst)
	*b = sample
	commbuf.Put(b)
	return dst, int64(len(sample))
}

// PAC computes an (ε, δ)-approximation of the top-k most frequent objects
// (Section 7.1). Expected time O(n/p·ρ + β·(log p/(pε²))·log(k/δ) + α log n).
// Collective. The blocking driver of PACStep, the form serve's
// frequent-objects queries run under comm.RunAsync.
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
// pass. Collective.
func EC(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
	p.validate()
	n := coll.SumAll(pe, int64(len(local)))
	kStar := p.KStarOverride
	if kStar <= 0 {
		kStar = stats.OptimalKStar(n, p.K, pe.P(), p.Eps, p.Delta)
	}
	rho := min(1, stats.ECSampleSize(n, kStar, p.Eps, p.Delta)/float64(n))
	return ecCore(pe, local, p, kStar, rho, rng)
}

// ecCore is the shared EC machinery with caller-fixed k* and ρ: sample
// at rho, select the kStar most sampled, count them exactly, return the
// exact top-k among them. Collective.
func ecCore(pe *comm.PE, local []uint64, p Params, kStar int, rho float64, rng *xrand.RNG) Result {
	p.validate()
	runs, size := sampleCounts(local, rho, rng, nil)
	sampleSize := coll.SumAll(pe, size)
	shard := dht.CountKV(pe, runs, dht.RouteHypercube)
	cands := dht.SelectTopK(pe, *shard, kStar, rng)
	commbuf.Put(shard)
	items := countTop(pe, local, candidateKeys(cands), p.K)
	return Result{Items: items, SampleSize: sampleSize, Rho: rho, KStar: kStar, Exact: true}
}

func candidateKeys(items []dht.KV) []uint64 {
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// countExactly counts the given candidate keys (identical on all PEs)
// over the local input: one scan, O(n/p), probing a pooled key →
// position table per element — at k* in the hundreds about twice as fast
// as a binary search over the sorted candidates. The caller sums the
// counts with one vector reduction: O(β·k* + α log p) communication, the
// candidate identities having travelled with the selection's all-gather.
func countExactly(local []uint64, keys []uint64) []int64 {
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
	return counts
}

// exactTop pairs the candidate keys with their global counts and returns
// the k most frequent, sorted by SortKVDesc.
func exactTop(keys []uint64, counts []int64, k int) []dht.KV {
	out := make([]dht.KV, len(keys))
	for i, key := range keys {
		out[i] = dht.KV{Key: key, Count: counts[i]}
	}
	dht.SortKVDesc(out)
	return out[:min(k, len(out))]
}

// countTop is the blocking exact count of the candidates: countExactly,
// one vector sum reduction, and exactTop. Collective.
func countTop(pe *comm.PE, local []uint64, keys []uint64, k int) []dht.KV {
	if len(keys) == 0 {
		return nil
	}
	return exactTop(keys, coll.AllReduce(pe, countExactly(local, keys), addI64), k)
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
	runs, size := sampleCounts(local, rho0, rng, nil)
	stage1Size := coll.SumAll(pe, size)
	shard := dht.CountKV(pe, runs, dht.RouteHypercube)

	// Inspect the head of the sampled frequency distribution.
	m := max(4*p.K, 64)
	head := dht.SelectTopK(pe, *shard, m, rng)
	commbuf.Put(shard)
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
	exact := countTop(pe, local, candidateKeys(head[:kStar]), p.K)
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
	runs, size := sampleCounts(local, rho, rng, nil)
	sampleSize := coll.SumAll(pe, size)

	// Direct delivery to the coordinator: rank 0 receives p-1 messages.
	tag := pe.NextCollTag()
	var top []dht.KV
	if pe.Rank() == 0 {
		for src := 1; src < pe.P(); src++ {
			rx, _ := pe.Recv(src, tag)
			runs = append(runs, rx.([]dht.KV)...)
		}
		top = topKLocal(dht.SumKVs(runs), p.K)
	} else {
		pe.Send(0, tag, runs, int64(len(runs))*coll.WordsOf[dht.KV]())
	}
	return scaled(coll.Broadcast(pe, 0, top), sampleSize, rho)
}

// NaiveTree is the second baseline: identical sample, but the aggregated
// counts flow to the coordinator along a binomial tree that merges count
// runs at every step (latency O(log p), but the volume near the root
// still grows with the distinct-key count). Collective.
func NaiveTree(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
	p.validate()
	n := coll.SumAll(pe, int64(len(local)))
	rho := min(1, stats.PACSampleSize(n, p.K, p.Eps, p.Delta)/float64(n))
	runs, size := sampleCounts(local, rho, rng, nil)
	sampleSize := coll.SumAll(pe, size)

	var top []dht.KV
	if merged := treeReduceCounts(pe, runs); pe.Rank() == 0 {
		top = topKLocal(merged, p.K)
	}
	return scaled(coll.Broadcast(pe, 0, top), sampleSize, rho)
}

// scaled is a baseline's result: the coordinator's top sample counts
// scaled by 1/ρ.
func scaled(top []dht.KV, sampleSize int64, rho float64) Result {
	items := make([]dht.KV, len(top))
	for i, it := range top {
		items[i] = dht.KV{Key: it.Key, Count: int64(float64(it.Count)/rho + 0.5)}
	}
	return Result{Items: items, SampleSize: sampleSize, Rho: rho, Exact: rho >= 1}
}

// treeReduceCounts merges count runs up a binomial tree rooted at 0: each
// PE appends its children's runs to acc and sums them back into runs
// before passing them up. The root returns the global runs, others nil.
func treeReduceCounts(pe *comm.PE, acc []dht.KV) []dht.KV {
	p := pe.P()
	if p == 1 {
		return acc
	}
	tag := pe.NextCollTag()
	vr := pe.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			acc = dht.SumKVs(acc)
			pe.Send(vr&^mask, tag, acc, int64(len(acc))*coll.WordsOf[dht.KV]())
			return nil
		}
		if src := vr | mask; src < p {
			rx, _ := pe.Recv(src, tag)
			acc = append(acc, rx.([]dht.KV)...)
		}
	}
	return dht.SumKVs(acc)
}

// topKLocal sorts counts by SortKVDesc, in place, and returns the first k.
func topKLocal(counts []dht.KV, k int) []dht.KV {
	dht.SortKVDesc(counts)
	return counts[:min(k, len(counts))]
}

// ExactTopK computes the exact top-k by fully counting every key through
// the DHT — the ground truth used by tests and experiment scoring (not
// communication-efficient; Θ(distinct keys) volume). Collective.
func ExactTopK(pe *comm.PE, local []uint64, k int, rng *xrand.RNG) []dht.KV {
	runs, _ := sampleCounts(local, 1, rng, nil)
	shard := dht.CountKV(pe, runs, dht.RouteHypercube)
	out := dht.SelectTopK(pe, *shard, k, rng)
	commbuf.Put(shard)
	return out
}
