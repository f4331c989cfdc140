// Package dht provides the distributed counting hash table of Section 7.1
// and the distributed single-shot Bloom filter (dSBF) refinement of
// Section 7.4. Keys are assigned to PEs by a mixing hash assumed to behave
// like a random function; counts are routed to the owner either directly
// (all-to-all) or through the hypercube with per-step aggregation
// ("indirect delivery to maintain logarithmic latency ... the incoming
// sample counts are merged with a hash table in each step").
//
// A count is held as runs: a []KV with each key once, keys strictly
// ascending. One engine builds every run — a stable radix sort
// (qsel.SortPairs) and a run-length pass: SumRuns sums values per key,
// SumKVs applies it to KV pairs (every hypercube step's held batch, the
// owners' shards, the dSBF cells, Resolve's gathered keys) and CountRuns
// counts bare keys (the local sample). SelectTopK reads the shards as
// runs. Table, the pooled hash table, serves keyed lookups only (see its
// doc).
package dht

import (
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/qsel"
)

// KV is one key's (partial or global) count.
type KV struct {
	Key   uint64
	Count int64
}

// RouteMode selects CountKV's delivery strategy. The algorithms route
// through the hypercube; RouteDirect is the baseline of the Section 7.1
// routing ablation.
type RouteMode int

const (
	// RouteHypercube uses indirect hypercube delivery with per-step count
	// aggregation: O(log p) startups per PE (the paper's default).
	RouteHypercube RouteMode = iota
	// RouteDirect uses direct all-to-all delivery: O(p) startups.
	RouteDirect
)

// Mix is the hash assigning keys to PEs (and to Bloom-filter cells); a
// SplitMix64-style finalizer, modelling the paper's random hash function.
func Mix(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Owner returns the PE owning key.
func Owner(key uint64, p int) int { return int(Mix(key) % uint64(p)) }

// CountKV routes every PE's count runs (see SumKVs) to the keys' owners
// and returns, on each PE, the global counts of the keys it owns as runs
// in a pooled buffer the caller returns with commbuf.Put. Under
// RouteHypercube every routing step sums the held batch back into runs,
// in place: ownership of a routed batch moves with the message, so the
// steady-state per-step cost is zero allocations. Under RouteDirect the
// owner sums the concatenated received parts once. items may be
// overwritten. Collective.
func CountKV(pe *comm.PE, items []KV, mode RouteMode) *[]KV {
	s := getScratch(pe)
	defer s.release(pe)
	shard := commbuf.GetCap[KV](len(items))
	s.shard = shard
	switch mode {
	case RouteDirect:
		parts := make([][]KV, s.p)
		for _, kv := range items {
			d := Owner(kv.Key, s.p)
			parts[d] = append(parts[d], kv)
		}
		for _, part := range coll.AllToAll(pe, parts) {
			*shard = append(*shard, part...)
		}
	case RouteHypercube:
		coll.RouteCombine(pe, items, s.owner, SumKVs, s.onHeld)
	default:
		panic("dht: unknown route mode")
	}
	*shard = SumKVs(*shard)
	return shard
}

// scratch is the per-call state of CountKV and SelectTopK, pooled per PE
// (comm.GetPooled): its buffers keep their capacity from call to call,
// and its callbacks, built once per pooled object, write into it — a
// closure built per call would cost an allocation per call.
type scratch struct {
	p     int
	shard *[]KV    // CountKV's owned shard, which onHeld fills
	ords  []uint64 // SelectTopK's complemented counts
	share []KV     // SelectTopK's local share of the top k

	owner  func(KV) int
	onHeld func([]KV)
}

func getScratch(pe *comm.PE) *scratch {
	s := comm.GetPooled[scratch](pe)
	s.p = pe.P()
	if s.owner == nil {
		s.owner = func(kv KV) int { return Owner(kv.Key, s.p) }
		s.onHeld = func(held []KV) { *s.shard = append(*s.shard, held...) }
	}
	return s
}

// release returns s to the PE's pool, keeping its buffers.
func (s *scratch) release(pe *comm.PE) {
	s.shard = nil
	comm.PutPooled(pe, s)
}

// HC is a hashed cell count: the dSBF wire format. Hash and Count are
// 32-bit so one cell costs a single machine word — half the volume of a
// KV pair, which is the refinement's point.
type HC struct {
	Hash  uint32
	Count uint32
}

// SBF is a distributed single-shot Bloom filter over counted keys: each
// PE holds the summed counts of the hash cells it owns, plus its local
// per-key contributions for later resolution of collisions. Both are
// sorted slices built from the sample's runs, so repeated builds over the
// same input are bit-identical.
type SBF struct {
	pe *comm.PE
	// Cells holds the owned hash cells' global counts as runs: Key is the
	// 32-bit cell, ascending.
	Cells []KV
	// cells[i] is the cell of the local contribution local[i]; both are
	// sorted by (cell, key), so Resolve walks them against the requested
	// cells in a deterministic order.
	cells []uint64
	local []KV
}

// cellOf hashes a key into the 32-bit cell space.
func cellOf(key uint64) uint32 { return uint32(Mix(key) >> 32) }

// cellOwner distributes cells over PEs by range-ish hashing.
func cellOwner(cell uint32, p int) int { return int(uint64(cell) % uint64(p)) }

// hcOf is a cell run's wire form, its count saturated at 2^32−1 (ample
// for sample counts).
func hcOf(kv KV) HC { return HC{uint32(kv.Key), uint32(min(kv.Count, 0xffffffff))} }

// BuildSBF inserts a PE's sampled count runs as (hash, count) cells and
// keeps the runs as its local contributions. The routed cells are runs
// too (ascending cell), and every routing step sums the held batch back
// into runs. local is only read. Collective.
func BuildSBF(pe *comm.PE, local []KV) *SBF {
	p := pe.P()
	n := len(local)
	s := &SBF{pe: pe}
	// local ascends by key, so a stable sort by cell orders the
	// contributions by (cell, key); cells doubles as the sort's second
	// key buffer.
	cells := make([]uint64, n)
	runs := make([]KV, n)
	for i, kv := range local {
		cells[i] = uint64(cellOf(kv.Key))
		runs[i] = KV{cells[i], kv.Count}
	}
	s.cells, s.local = qsel.SortPairs(cells, local, make([]uint64, n), make([]KV, n), cells, make([]KV, n))
	runs = SumKVs(runs)
	items := make([]HC, len(runs))
	for i, kv := range runs {
		items[i] = hcOf(kv)
	}
	destFn := func(hc HC) int { return cellOwner(hc.Hash, p) }
	combine := func(held []HC) []HC {
		runs = runs[:0]
		for _, hc := range held {
			runs = append(runs, KV{uint64(hc.Hash), int64(hc.Count)})
		}
		runs = SumKVs(runs)
		// The runs are no longer than held, which the router hands over
		// with the message: overwrite it in place.
		out := held[:len(runs)]
		for i, kv := range runs {
			out[i] = hcOf(kv)
		}
		return out
	}
	coll.RouteCombine(pe, items, destFn, combine, func(held []HC) {
		s.Cells = make([]KV, len(held))
		for i, hc := range held {
			s.Cells[i] = KV{uint64(hc.Hash), int64(hc.Count)}
		}
	})
	return s
}

// Resolve splits the given hash cells back into per-key global counts
// ("we request the keys of all elements with higher rank, and replace the
// (hash, value) pairs with (key, value) pairs, splitting them where hash
// collisions occurred"). cells must be identical on all PEs (e.g. from an
// all-gather of owners' selections). The result — global per-key counts
// for every key falling in one of the cells, as runs — is returned on all
// PEs. Collective.
func (s *SBF) Resolve(cells []uint32) []KV {
	want := make([]uint64, len(cells))
	for i, c := range cells {
		want[i] = uint64(c)
	}
	slices.Sort(want)
	var mine []KV
	i := 0
	for _, c := range want {
		for i < len(s.cells) && s.cells[i] < c {
			i++
		}
		for ; i < len(s.cells) && s.cells[i] == c; i++ {
			mine = append(mine, s.local[i])
		}
	}
	return SumKVs(coll.AllGatherConcat(s.pe, mine))
}
