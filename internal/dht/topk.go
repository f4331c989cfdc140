package dht

import (
	"cmp"
	"slices"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// SortKVDesc orders by count descending, key ascending (deterministic:
// two entries that compare equal are equal, so any sort gives this
// order).
func SortKVDesc(items []KV) {
	slices.SortFunc(items, func(a, b KV) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
}

// SelectTopK returns the k entries with the highest counts from
// DHT-sharded count runs (each PE's shard holds each key once, keys
// ascending), on all PEs, using the unsorted selection algorithm of
// Section 4.1 on the counts (descending order is realized by
// complementing the count). Ties at the threshold are split
// deterministically — across PEs with a prefix sum, within a PE by
// ascending key — and exactly k entries are returned (fewer if fewer
// exist globally). Shared by the frequent-objects (§7) and
// sum-aggregation (§8) layers. The shard is only read. Collective. The
// blocking driver of SelectTopKStep, which holds the algorithm
// (async.go).
func SelectTopK(pe *comm.PE, shard []KV, k int, rng *xrand.RNG) []KV {
	st := newSelectTopKStep(pe, shard, k, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}
