package freq

import (
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/stats"
	"commtopk/internal/xrand"
)

// ECSBF is EC with the distributed single-shot Bloom filter refinement of
// Section 7.4: the sample is counted as (hash, count) cells (one machine
// word each instead of two), the top k*+κ cells are selected, their keys
// are resolved (splitting hash collisions), and the top k* resolved keys
// are counted exactly. If the resolved set is too small because of
// collisions, κ is doubled and the selection retried, as the paper
// prescribes. Collective.
func ECSBF(pe *comm.PE, local []uint64, p Params, rng *xrand.RNG) Result {
	p.validate()
	n := coll.SumAll(pe, int64(len(local)))
	kStar := p.KStarOverride
	if kStar <= 0 {
		kStar = stats.OptimalKStar(n, p.K, pe.P(), p.Eps, p.Delta)
	}
	rho := min(1, stats.ECSampleSize(n, kStar, p.Eps, p.Delta)/float64(n))

	runs, size := sampleCounts(local, rho, rng, nil)
	sampleSize := coll.SumAll(pe, size)
	sbf := dht.BuildSBF(pe, runs)

	kappa := kStar/2 + 8
	var resolved []dht.KV
	for attempt := 0; attempt < 4; attempt++ {
		cells := selectTopCells(pe, sbf.Cells, kStar+kappa, rng)
		resolved = sbf.Resolve(cells)
		if len(resolved) >= kStar || len(cells) < kStar+kappa {
			// Enough keys resolved, or the filter is exhausted.
			break
		}
		kappa *= 2
	}
	dht.SortKVDesc(resolved)
	if len(resolved) > kStar {
		resolved = resolved[:kStar]
	}
	exact := countTop(pe, local, candidateKeys(resolved), p.K)
	return Result{Items: exact, SampleSize: sampleSize, Rho: rho, KStar: kStar, Exact: true}
}

// selectTopCells picks the m cells with the highest counts from the
// distributed cell runs (all PEs receive the same cell list). The runs
// already key cells as uint64 in ascending order, a function of the
// sample alone, so selection runs directly on them and its pivot sampling
// draws the same RNG stream on every run and under any serve
// interleaving. Each cell's count is global (a cell lives on exactly one
// PE, its cellOwner), which is all the selection needs of a sharding.
// Collective.
func selectTopCells(pe *comm.PE, cells []dht.KV, m int, rng *xrand.RNG) []uint32 {
	top := dht.SelectTopK(pe, cells, m, rng)
	out := make([]uint32, len(top))
	for i, kv := range top {
		out[i] = uint32(kv.Key)
	}
	return out
}
