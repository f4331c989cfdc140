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

// SelectTopKTable returns the k entries with the highest counts from a
// DHT-sharded count Table, on all PEs, using the unsorted selection
// algorithm of Section 4.1 on the counts (descending order is realized by
// complementing the count). Ties at the threshold are split
// deterministically — across PEs with a prefix sum, within a PE by
// ascending key, so shard iteration order cannot leak into the result —
// and exactly k entries are returned (fewer if fewer exist globally).
// Shared by the frequent-objects (§7) and sum-aggregation (§8) layers.
// The shard table is only read. Collective. The blocking driver of
// SelectTopKTableStep, which holds the algorithm (async.go).
func SelectTopKTable(pe *comm.PE, shard *Table, k int, rng *xrand.RNG) []KV {
	st := newSelectTopKStep(pe, shard, k, rng, nil, false)
	comm.RunSteps(pe, st)
	res := st.res
	st.release(pe)
	return res
}
