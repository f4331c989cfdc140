// Package wireprogs is the shared registration unit for wire clusters:
// every binary that participates in a cluster — the leader and every
// Config.WorkerCommand binary — imports this package so that all
// processes agree on the registered program names and payload codecs.
// (Type identity on the wire is the FNV hash of the registration name,
// so agreement on names is agreement on the protocol; see wire/codec.go.)
//
// The registered programs double as the differential battery: each runs a
// representative algorithm slice — the collective suite, sel.Kth,
// bpq.DeleteMin — and folds its observations into one result word per PE,
// so a wire run and its in-process mailbox twin can be compared
// bit-for-bit on both results and meters.
package wireprogs

import (
	"math"

	"commtopk/internal/bpq"
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/mtopk"
	"commtopk/internal/sel"
	"commtopk/internal/wire"
	"commtopk/internal/xrand"
)

func init() {
	bpq.RegisterWireCodecs[uint64]("u64")
	bpq.RegisterWireCodecs[int64]("i64")
	mtopk.RegisterWireCodecs()
	freq.RegisterWireCodecs()
	wire.RegisterPOD[int]("int")
	wire.RegisterPOD[[2]int64]("i64x2")

	wire.RegisterProg("collectives", progCollectives)
	wire.RegisterProg("kth", progKth)
	wire.RegisterProg("deletemin", progDeleteMin)
	wire.RegisterProg("mtopk", progMtopk)
	wire.RegisterProg("freq", progFreq)
}

// mix folds a word into a running FNV-1a-style checksum; the programs
// fold every observed value through it so any divergence — a wrong
// element, a wrong order, a wrong count — lands in the result word.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

func mixSlice(h uint64, s []uint64) uint64 {
	h = mix(h, uint64(len(s)))
	for _, v := range s {
		h = mix(h, v)
	}
	return h
}

// progCollectives runs the collective battery over pseudo-random local
// blocks: broadcasts, reductions, the exclusive scan and all-to-all.
// args: [seed, n] with n the per-PE block length.
func progCollectives(pe *comm.PE, args []uint64) uint64 {
	seed, n := int64(args[0]), int(args[1])
	rank, p := pe.Rank(), pe.P()
	rng := xrand.NewPE(seed, rank)
	local := make([]uint64, n)
	for i := range local {
		local[i] = rng.Uint64()
	}
	h := uint64(14695981039346656037)

	h = mixSlice(h, coll.Broadcast(pe, 0, local))
	h = mix(h, coll.BroadcastScalar(pe, p-1, local[0]))
	h = mix(h, uint64(coll.SumAll(pe, int64(local[0]%1024))))
	h = mix(h, uint64(coll.ExScanSum(pe, int64(rank+1))))
	h = mix(h, coll.AllReduceScalar(pe, local[0], func(a, b uint64) uint64 { return min(a, b) }))

	parts := make([][]uint64, p)
	for d := range parts {
		parts[d] = local[:min(1+(rank+d)%4, n)]
	}
	for src, part := range coll.AllToAll(pe, parts) {
		h = mix(h, uint64(src))
		h = mixSlice(h, part)
	}
	return h
}

// progKth selects the k-th smallest of p·n pseudo-random keys.
// args: [seed, n, k]; every PE returns the same selected value.
func progKth(pe *comm.PE, args []uint64) uint64 {
	seed, n, k := int64(args[0]), int(args[1]), int64(args[2])
	rng := xrand.NewPE(seed, pe.Rank())
	local := make([]uint64, n)
	for i := range local {
		local[i] = rng.Uint64()
	}
	return sel.Kth(pe, local, k, xrand.NewPE(seed+1, pe.Rank()))
}

// progDeleteMin drives the bulk priority queue: insert n unique keys per
// PE, then alternate DeleteMin batches with refill insertions, folding
// every deleted batch and the surviving queue length into the checksum.
// args: [seed, n, k, rounds].
func progDeleteMin(pe *comm.PE, args []uint64) uint64 {
	seed, n, k, rounds := int64(args[0]), int(args[1]), int64(args[2]), int(args[3])
	rank, p := pe.Rank(), pe.P()
	rng := xrand.NewPE(seed, rank)
	q := bpq.New[uint64](pe, seed)
	var seq uint32
	fresh := func(m int) []uint64 {
		ks := make([]uint64, m)
		for i := range ks {
			ks[i] = bpq.MakeUnique(uint32(rng.Uint64()>>40), seq, rank, p)
			seq++
		}
		return ks
	}
	q.InsertBulk(fresh(n))
	h := uint64(14695981039346656037)
	for r := 0; r < rounds; r++ {
		h = mixSlice(h, q.DeleteMin(k))
		if r%2 == 0 {
			q.InsertBulk(fresh(int(k) / 2))
		}
	}
	if v, ok := q.PeekMin(); ok {
		h = mix(h, v)
	}
	h = mix(h, uint64(q.GlobalLen()))
	return h
}

// progMtopk runs the multicriteria layer over pseudo-random score lists:
// the distributed threshold algorithm (threshold, scan depths, local
// candidate hits) followed by the exact refinement, folding every field
// of both results into the checksum. IDs are globally unique by
// rank-disjoint offsets. args: [seed, n, m, k] with n objects and m
// criteria per PE.
func progMtopk(pe *comm.PE, args []uint64) uint64 {
	seed, n, m, k := int64(args[0]), int(args[1]), int(args[2]), int(args[3])
	rank := pe.Rank()
	objs := mtopk.GenObjects(xrand.NewPE(seed, rank), n, m, 1+uint64(rank)*uint64(n))
	d := mtopk.NewData(objs, m)
	h := uint64(14695981039346656037)

	res := mtopk.DTA(pe, d, mtopk.SumScore, k, xrand.NewPE(seed+1, rank))
	h = mix(h, math.Float64bits(res.Threshold))
	h = mix(h, uint64(res.K))
	h = mix(h, uint64(res.Rounds))
	for _, pl := range res.PrefixLens {
		h = mix(h, uint64(pl))
	}
	for _, hit := range res.Hits {
		h = mix(h, hit.ID)
		h = mix(h, math.Float64bits(hit.Score))
	}
	for _, hit := range mtopk.RDTA(pe, d, mtopk.SumScore, k, xrand.NewPE(seed+2, rank)) {
		h = mix(h, hit.ID)
		h = mix(h, math.Float64bits(hit.Score))
	}
	return h
}

// progFreq runs the heavy-hitter layer over skewed pseudo-random
// streams (small keys dominate, so the top-k counts are nontrivial):
// the sampling-based PAC estimate followed by the exact-counting
// refinement, folding item lists, sample sizes and the realized
// sampling probability into the checksum. args: [seed, n, universe, k].
func progFreq(pe *comm.PE, args []uint64) uint64 {
	seed, n, uni, k := int64(args[0]), int(args[1]), args[2], int(args[3])
	rank := pe.Rank()
	rng := xrand.NewPE(seed, rank)
	local := make([]uint64, n)
	for i := range local {
		u := rng.Uint64() % uni
		local[i] = rng.Uint64() % (u + 1)
	}
	pr := freq.Params{K: k, Eps: 0.05, Delta: 0.01}
	h := uint64(14695981039346656037)

	res := freq.PAC(pe, local, pr, xrand.NewPE(seed+1, rank))
	h = mix(h, uint64(res.SampleSize))
	h = mix(h, math.Float64bits(res.Rho))
	for _, kv := range res.Items {
		h = mix(h, kv.Key)
		h = mix(h, uint64(kv.Count))
	}
	res = freq.EC(pe, local, pr, xrand.NewPE(seed+2, rank))
	h = mix(h, uint64(res.SampleSize))
	h = mix(h, uint64(res.KStar))
	for _, kv := range res.Items {
		h = mix(h, kv.Key)
		h = mix(h, uint64(kv.Count))
	}
	return h
}
