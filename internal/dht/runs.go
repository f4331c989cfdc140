package dht

import (
	"commtopk/internal/commbuf"
	"commtopk/internal/qsel"
)

// SumRuns builds sum runs, the engine behind SumKVs and the aggregate of
// internal/agg. It sorts the pairs (keys[i], vals[i]) by key with the stable radix sort
// qsel.SortPairs and folds each run of equal keys into one pair whose
// value is the run's values summed from zero in input order. It returns
// the distinct keys, strictly ascending, and their sums: a prefix of
// whichever of (ka, va) and (kb, vb) the sort ended in, each at least
// len(keys) long. keys and vals may themselves be the pair (kb, vb):
// SortPairs reads its input only before its second pass writes. It
// allocates nothing.
func SumRuns[V int64 | float64](keys []uint64, vals []V, ka []uint64, va []V, kb []uint64, vb []V) ([]uint64, []V) {
	sk, sv := qsel.SortPairs(keys, vals, ka, va, kb, vb)
	u := 0
	for i := 0; i < len(sk); u++ {
		k, sum := sk[i], V(0)
		for ; i < len(sk) && sk[i] == k; i++ {
			sum += sv[i]
		}
		sk[u], sv[u] = k, sum
	}
	return sk[:u], sv[:u]
}

// CountRuns counts keys into runs: it returns dst[:0] with each distinct
// key of keys appended once, keys strictly ascending, each with its
// number of occurrences. It is SumRuns with every key weighing one and no
// value arrays: the sort carries an empty payload, so the scratch is two
// key buffers from the commbuf pools — a third of what a []KV copy of
// the keys summed by SumKVs needs, and a local sample at ρ = 1 is the
// whole input. A warm call allocates only when dst grows. keys is only
// read.
func CountRuns(keys []uint64, dst []KV) []KV {
	n := len(keys)
	ka, kb := commbuf.Get[uint64](n), commbuf.Get[uint64](n)
	none := make([]struct{}, n)
	sk, _ := qsel.SortPairs(keys, none, *ka, none, *kb, none)
	dst = dst[:0]
	for i := 0; i < n; {
		j := i + 1
		for j < n && sk[j] == sk[i] {
			j++
		}
		dst = append(dst, KV{Key: sk[i], Count: int64(j - i)})
		i = j
	}
	commbuf.Put(ka)
	commbuf.Put(kb)
	return dst
}

// SumKVs turns kvs into count runs in place: every key once, keys
// strictly ascending, each count the sum of the key's counts. It returns
// the runs as a prefix of kvs. Input that already is runs is returned as
// it is; otherwise SumRuns builds the runs in scratch from the commbuf
// pools, so a call on a warm pool allocates nothing.
func SumKVs(kvs []KV) []KV {
	n := len(kvs)
	i := 1
	for i < n && kvs[i-1].Key < kvs[i].Key {
		i++
	}
	if i >= n {
		return kvs
	}
	ka, kb := commbuf.Get[uint64](n), commbuf.Get[uint64](n)
	ca, cb := commbuf.Get[int64](n), commbuf.Get[int64](n)
	keys, counts := *kb, *cb
	for i, kv := range kvs {
		keys[i], counts[i] = kv.Key, kv.Count
	}
	sk, sc := SumRuns(keys, counts, *ka, *ca, keys, counts)
	for i, k := range sk {
		kvs[i] = KV{Key: k, Count: sc[i]}
	}
	commbuf.Put(ka)
	commbuf.Put(kb)
	commbuf.Put(ca)
	commbuf.Put(cb)
	return kvs[:len(sk)]
}
