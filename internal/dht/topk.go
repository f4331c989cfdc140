package dht

import (
	"cmp"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/sel"
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
// ascending), on all PEs, caller-owned and sorted by SortKVDesc, using
// the unsorted selection algorithm of Section 4.1 on the counts
// (descending order is realized by complementing the count:
// sel.SmallestKN on the complements). Ties at the threshold are split
// deterministically — across PEs with a prefix sum, within a PE by
// ascending key — and exactly k entries are returned (fewer if fewer
// exist globally). Shared by the frequent-objects (§7) and
// sum-aggregation (§8) layers. The shard is only read. Collective.
func SelectTopK(pe *comm.PE, shard []KV, k int, rng *xrand.RNG) []KV {
	total := coll.SumAll(pe, int64(len(shard)))
	if total == 0 {
		return nil
	}
	if total <= int64(k) {
		return gatherSorted(pe, shard)
	}
	s := getScratch(pe)
	defer s.release(pe)
	ords := s.ords[:0]
	for _, it := range shard {
		ords = append(ords, ^uint64(it.Count))
	}
	s.ords = ords
	thr, _, take := sel.SmallestKN(pe, ords, total, int64(k), rng)
	// The local share: every entry above the threshold count and the
	// first take of its tie band, in the runs' order.
	thrCount := int64(^thr)
	share := s.share[:0]
	for _, it := range shard {
		if it.Count > thrCount || it.Count == thrCount && take > 0 {
			if it.Count == thrCount {
				take--
			}
			share = append(share, it)
		}
	}
	s.share = share
	return gatherSorted(pe, share)
}

// gatherSorted all-gathers every PE's entries into a caller-owned slice
// sorted by SortKVDesc. Collective.
func gatherSorted(pe *comm.PE, local []KV) []KV {
	top := coll.AllGatherConcat(pe, local)
	SortKVDesc(top)
	return top
}
