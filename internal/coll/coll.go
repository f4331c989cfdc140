// Package coll implements the collective communication operations of
// Section 2 of the paper on top of the point-to-point primitives of
// internal/comm: broadcast, (all-)reduction, the exclusive prefix sum,
// the binomial up-sweep, all-gather, all-to-all, and the hypercube router
// with per-step combining used for distributed hash table insertion.
//
// All collectives are implemented with binomial trees, recursive doubling
// or hypercube exchanges, so their measured startup counts are O(log p)
// and their measured volumes match the O(βm + α log p) bounds the paper
// assumes. Every collective must be entered by all PEs (SPMD discipline);
// tags are drawn from the synchronized per-PE sequence.
//
// # Buffer ownership and allocation discipline
//
// Intermediate message buffers move through the typed pools in
// internal/commbuf, travelling as *[]T (a pointer in an interface does
// not allocate, unlike a slice header). Ownership of a buffer transfers
// with the message — the sender never touches it again, and the receiver
// recycles it after reading — so recycling is race-free without any
// extra synchronization. Caller inputs are never sent by reference, so
// callers may reuse their input slices as soon as a collective returns.
//
// Fully allocation-free in steady state are the collectives that do not
// hand a fresh result slice to the caller: the scalar collectives
// (AllReduceScalar, SumAll, BroadcastScalar, ExScanSum), Barrier,
// AllReduceIntoStep with a reused dst, and RouteCombine (modulo its
// combine hook). The slice-returning collectives (AllReduce, AllGatherv,
// AllGatherConcat, AllToAll) allocate their result and nothing else.
//
// Results alias no caller input, with two exceptions: Broadcast returns
// the root's slice on every PE, read-only, and AllToAll hands back the
// PE's own part as it was passed (every received part is a caller-owned
// copy).
//
// A collective is a stepper only where a stepper composes it (async*.go):
// selection's level runs ReduceConcatStep, BroadcastVecStep and
// AllReduceScalarStep, the serving mux AllReduceIntoStep, and their
// blocking forms drive the same engines with comm.RunSteps. Every other
// collective is straight-line blocking code in the paper's SPMD shape:
// each round posts its receive, sends, then waits.
package coll

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// WordsOf returns the size of T in 64-bit machine words (rounded up),
// used to meter messages in the paper's unit of account.
func WordsOf[T any]() int64 {
	var zero T
	sz := int64(unsafe.Sizeof(zero))
	if sz == 0 {
		return 0
	}
	return (sz + 7) / 8
}

func sliceWords[T any](s []T) int64 { return int64(len(s)) * WordsOf[T]() }

// sendCopy copies s into a pooled buffer and sends it to dst. Ownership of
// the buffer passes to the receiver (which recycles it with Put when done
// reading), so s itself never enters a channel and the caller may mutate
// it as soon as sendCopy returns.
func sendCopy[T any](pe *comm.PE, pool *commbuf.Pool[T], dst int, tag comm.Tag, s []T) {
	b := pool.Get(len(s))
	copy(*b, s)
	pe.Send(dst, tag, b, sliceWords(s))
}

// appendPooled appends s to the pooled buffer b. When b is full, its
// contents move to a pooled buffer of a class that fits and b goes back
// to its pool, so a buffer that grows round by round allocates nothing
// once the pool is warm.
func appendPooled[T any](pool *commbuf.Pool[T], b *[]T, s []T) *[]T {
	if n := len(*b) + len(s); n > cap(*b) {
		nb := pool.GetCap(n)
		*nb = append(*nb, *b...)
		pool.Put(b)
		b = nb
	}
	*b = append(*b, s...)
	return b
}

// waitBuf completes h and returns its payload, a pooled buffer that is
// now the caller's to Put.
func waitBuf[T any](h *comm.RecvHandle) *[]T {
	rx, _ := h.Wait()
	return rx.(*[]T)
}

// combine folds rx into acc elementwise, in place.
func combine[T any](op func(a, b T) T, acc, rx []T) {
	if len(acc) != len(rx) {
		panic(fmt.Sprintf("coll: reduction vector length mismatch: %d vs %d", len(acc), len(rx)))
	}
	for i, v := range rx {
		acc[i] = op(acc[i], v)
	}
}

// Barrier synchronizes all PEs (a zero-word all-reduce).
func Barrier(pe *comm.PE) {
	AllReduceScalar(pe, int64(0), func(a, b int64) int64 { return a + b })
}

// Broadcast distributes root's data to all PEs along a binomial tree and
// returns it everywhere. Non-root inputs are ignored. The returned slice
// is shared between PEs in-process and must be treated as read-only; use
// slices.Clone if mutation is needed.
func Broadcast[T any](pe *comm.PE, root int, data []T) []T {
	p := pe.P()
	if p == 1 {
		return data
	}
	tag := pe.NextCollTag()
	vr := (pe.Rank() - root + p) % p
	// Receive from the parent (the lowest set bit of vr), then forward to
	// the children below that bit. A forwarded payload is the box it
	// arrived in; only the root boxes its slice.
	mask := 1
	var boxed any
	for ; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			boxed, _ = pe.Recv(((vr&^mask)+root)%p, tag)
			data = boxed.([]T)
			break
		}
	}
	if boxed == nil {
		boxed = data
	}
	words := sliceWords(data)
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vr | mask; child < p {
			pe.Send((child+root)%p, tag, boxed, words)
		}
	}
	return data
}

// BroadcastScalar broadcasts a single value from root: the vector
// broadcast (BroadcastVecStep) on one element, driven with blocking
// waits. Allocation-free in steady state.
func BroadcastScalar[T any](pe *comm.PE, root int, v T) T {
	s := newBroadcast[T](pe, root, nil, nil)
	s.one[0] = v
	s.v, s.held = s.one[:], true
	comm.RunSteps(pe, s)
	v = s.v[0]
	if s.rx != nil {
		s.pool.Put(s.rx)
	}
	s.release(pe)
	return v
}

// AllReduce combines x elementwise with op and returns the result on all
// PEs. Short vectors use recursive doubling (volume m·log p, minimal
// latency); long vectors switch to reduce-scatter + all-gather
// (Rabenseifner), whose volume is O(m) independent of p — the
// full-bandwidth regime of the collectives the paper cites [33]. Both
// paths fold non-power-of-two stragglers onto partners first. The result
// never aliases x and is owned by the caller. The schedule is the
// all-reduce engine of async_vec.go driven with blocking waits.
func AllReduce[T any](pe *comm.PE, x []T, op func(a, b T) T) []T {
	dst := commbuf.Resize[T](nil, len(x))
	copy(dst, x)
	comm.RunSteps(pe, newAllReduceAccStep(pe, dst, op, nil))
	return dst
}

// AllReduceScalar is AllReduce for a single value: the all-reduce engine
// on a one-element accumulator. Allocation-free in steady state.
func AllReduceScalar[T any](pe *comm.PE, v T, op func(a, b T) T) T {
	return runScalar(pe, newAllReduceScalar(pe, v, op, nil))
}

// addOf is the sum operator as a package-level generic function.
// Evaluating it inside a generic function still builds a
// dictionary-carrying func value that heap-allocates when it escapes into
// the pooled stepper state, so the zero-alloc wrappers below cache the
// built value in a per-PE singleton (comm.GetSingleton) — one allocation
// per PE and element type, ever.
func addOf[T cmp.Ordered](a, b T) T { return a + b }

type scalarOps[T cmp.Ordered] struct {
	add func(a, b T) T
}

func opsOf[T cmp.Ordered](pe *comm.PE) *scalarOps[T] {
	o := comm.GetSingleton[scalarOps[T]](pe)
	if o.add == nil {
		o.add = addOf[T]
	}
	return o
}

// SumAll returns the global sum of v across PEs on all PEs.
func SumAll[T int | int64 | float64 | uint64](pe *comm.PE, v T) T {
	return AllReduceScalar(pe, v, opsOf[T](pe).add)
}

// ExScanSum returns the exclusive prefix sum of a scalar — the sum over
// lower ranks, 0 on rank 0 — by Hillis–Steele dissemination (⌈log₂ p⌉
// rounds in which rank r adds what rank r−d holds) and one shift-down
// round. Every round posts its receive before its send. Allocation-free in
// steady state.
func ExScanSum[T int | int64 | float64 | uint64](pe *comm.PE, v T) T {
	p := pe.P()
	if p == 1 {
		return 0
	}
	pool := commbuf.For[T]()
	rank := pe.Rank()
	tag := pe.NextCollTag()
	// acc covers ranks (rank−d, rank] at the start of round d.
	acc := [1]T{v}
	for d := 1; d < p; d <<= 1 {
		var h *comm.RecvHandle
		if rank-d >= 0 {
			h = pe.IRecv(rank-d, tag)
		}
		if rank+d < p {
			sendCopy(pe, pool, rank+d, tag, acc[:])
		}
		if h != nil {
			rx := waitBuf[T](h)
			acc[0] = (*rx)[0] + acc[0]
			pool.Put(rx)
		}
	}
	tag = pe.NextCollTag()
	var h *comm.RecvHandle
	if rank > 0 {
		h = pe.IRecv(rank-1, tag)
	}
	if rank+1 < p {
		sendCopy(pe, pool, rank+1, tag, acc[:])
	}
	if h == nil {
		return 0 // rank 0: the empty prefix
	}
	rx := waitBuf[T](h)
	v = (*rx)[0]
	pool.Put(rx)
	return v
}

// bruckMsg is one dissemination round's payload: the concatenated data of
// a contiguous run of blocks plus their individual lengths. The slices
// are pooled buffers whose ownership travels with the message (pointers,
// so the receiver can recycle them). ReduceConcatStep's tree edges carry
// the same shape — lens is then the summed header, data the subtree's
// concatenation — so the two share this carrier and its wire codec.
type bruckMsg[T any] struct {
	lens *[]int64
	data *[]T
}

// allGatherBruck is the dissemination (Bruck-style gossiping) all-gather:
// starting from its own block, every PE doubles its held run of blocks
// per round by exchanging with partners at distance 2^i, so after
// ⌈log₂ p⌉ rounds it holds all p blocks — ≤ total + p length words and
// ⌈log₂ p⌉ startups per PE, the paper's O(β·total + α log p) with the
// gossiping constant. Every round ships pooled copies of the held lengths
// and data, whose ownership moves to the receiver.
//
// It returns pooled buffers, which the caller puts back: the arena holds
// the blocks in shifted order (rank, rank+1, …, rank+p−1 mod p) and lens
// their lengths in that order.
func allGatherBruck[T any](pe *comm.PE, data []T) (arena *[]T, lens *[]int64) {
	p, rank := pe.P(), pe.Rank()
	tag := pe.NextCollTag()
	wpool, ipool, tpool := commbuf.For[bruckMsg[T]](), commbuf.For[int64](), commbuf.For[T]()
	lens = ipool.GetCap(p)
	*lens = append(*lens, int64(len(data)))
	arena = tpool.GetCap(2*len(data) + 8)
	*arena = append(*arena, data...)
	for d := 1; d < p; d <<= 1 {
		cnt := min(d, p-d)
		var elems int64
		for _, l := range (*lens)[:cnt] {
			elems += l
		}
		// One message per round: the lengths ride along with the payload
		// (both metered), and a single send keeps the exchange
		// deadlock-free.
		h := pe.IRecv((rank+d)%p, tag)
		lp := ipool.Get(cnt)
		copy(*lp, (*lens)[:cnt])
		dp := tpool.Get(int(elems))
		copy(*dp, (*arena)[:elems])
		wp := wpool.Get(1)
		(*wp)[0] = bruckMsg[T]{lens: lp, data: dp}
		pe.Send((rank-d+p)%p, tag, wp, int64(cnt)+elems*WordsOf[T]())
		rw := waitBuf[bruckMsg[T]](h)
		rx := (*rw)[0]
		*lens = append(*lens, (*rx.lens)...)
		arena = appendPooled(tpool, arena, *rx.data)
		ipool.Put(rx.lens)
		tpool.Put(rx.data)
		(*rw)[0] = bruckMsg[T]{}
		wpool.Put(rw)
	}
	return arena, lens
}

// allGatherRanked runs the all-gather and copies its result out once, in
// rank order, into a caller-owned slice; lens receives the block lengths
// in rank order (when non-nil, length p).
func allGatherRanked[T any](pe *comm.PE, data []T, lens []int64) []T {
	p := pe.P()
	arena, held := allGatherBruck(pe, data)
	// The arena starts at this PE's own block: rank 0's block sits at held
	// index i0 = p − rank (mod p).
	i0 := (p - pe.Rank()) % p
	var off0 int64
	for _, l := range (*held)[:i0] {
		off0 += l
	}
	out := make([]T, len(*arena))
	n := copy(out, (*arena)[off0:])
	copy(out[n:], (*arena)[:off0])
	if lens != nil {
		n := copy(lens, (*held)[i0:])
		copy(lens[n:], (*held)[:i0])
	}
	commbuf.For[T]().Put(arena)
	commbuf.For[int64]().Put(held)
	return out
}

// AllGatherv collects every PE's slice on all PEs, indexed by rank, via
// the dissemination all-gather (see allGatherBruck). The returned
// subslices view one caller-owned buffer.
func AllGatherv[T any](pe *comm.PE, data []T) [][]T {
	p := pe.P()
	if p == 1 {
		return [][]T{slices.Clone(data)}
	}
	lens := make([]int64, p)
	flat := allGatherRanked(pe, data, lens)
	out := make([][]T, p)
	var off int64
	for r, l := range lens {
		out[r] = flat[off : off+l : off+l]
		off += l
	}
	return out
}

// AllGatherConcat collects every PE's slice concatenated in rank order.
// The result is owned by the caller (each PE gets its own copy).
func AllGatherConcat[T any](pe *comm.PE, data []T) []T {
	if pe.P() == 1 {
		return slices.Clone(data)
	}
	return allGatherRanked(pe, data, nil)
}

// AllToAll delivers parts[i] from every PE to PE i; the result is indexed
// by source rank. Direct point-to-point delivery: p−1 startups per PE,
// pairwise-staggered to avoid hot spots (round i sends to rank+i and
// receives from rank−i, each part as a pooled copy). The self-part
// out[rank] aliases parts[rank] (no copy — pinned by tests); every
// received part is a caller-owned copy, and parts may be reused as soon
// as AllToAll returns.
func AllToAll[T any](pe *comm.PE, parts [][]T) [][]T {
	p, rank := pe.P(), pe.Rank()
	if len(parts) != p {
		panic(fmt.Sprintf("coll: AllToAll needs %d parts, got %d", p, len(parts)))
	}
	out := make([][]T, p)
	out[rank] = parts[rank]
	if p == 1 {
		return out
	}
	pool := commbuf.For[T]()
	tag := pe.NextCollTag()
	for i := 1; i < p; i++ {
		dst, src := (rank+i)%p, (rank-i+p)%p
		h := pe.IRecv(src, tag)
		sendCopy(pe, pool, dst, tag, parts[dst])
		rx := waitBuf[T](h)
		out[src] = slices.Clone(*rx)
		pool.Put(rx)
	}
	return out
}
