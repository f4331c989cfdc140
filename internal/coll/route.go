package coll

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// routeBufs are the router's per-PE partition buffers, pooled per PE
// (comm.GetPooled) so they keep their capacity from call to call. keep
// holds the two alternating partition targets — the held batch aliases at
// most one of them, never the one being written — and ship the staging
// area for outgoing batches, which are always copied into pooled messages
// before sending, so reusing it is safe.
type routeBufs[T any] struct {
	keep [2][]T
	ship []T
}

// RouteCombine is the hypercube router for items whose destination is
// derivable from the item itself (e.g. a hashed key): nothing but the
// payload travels. dest must be pure; combine (optional) re-aggregates the
// held batch after every exchange and must preserve destinations. out
// (nil to discard) receives this PE's routed batch as a borrowed view,
// valid only during the call. O(log p) startups per PE: a
// non-power-of-two p folds the top p−r ranks onto their partners first
// and unfolds at the end (two extra exchanges). Every batch travels as a
// pooled copy whose ownership moves to the receiver. items may be
// overwritten. Steady-state allocation-free (modulo the caller's own
// combine hook). Collective.
func RouteCombine[T any](pe *comm.PE, items []T, dest func(T) int, combine func([]T) []T, out func([]T)) {
	p := pe.P()
	for _, it := range items {
		if d := dest(it); d < 0 || d >= p {
			panic(fmt.Sprintf("coll: RouteCombine item with invalid dest %d", d))
		}
	}
	hold := items
	if p == 1 {
		if combine != nil {
			hold = combine(hold)
		}
		if out != nil {
			out(hold)
		}
		return
	}
	pool := commbuf.For[T]()
	tag := pe.NextCollTag()
	rank := pe.Rank()
	r, dims := 1, 0
	for r*2 <= p {
		r *= 2
		dims++
	}
	extra := p - r
	bufs := comm.GetPooled[routeBufs[T]](pe)
	cur := 1
	// flipKeep returns the emptied partition target hold does not alias;
	// storeKeep records it back once appends may have grown it.
	flipKeep := func() []T {
		cur ^= 1
		return bufs.keep[cur][:0]
	}
	storeKeep := func(b []T) { bufs.keep[cur] = b }
	// take completes h and appends the batch it carries onto dst.
	take := func(h *comm.RecvHandle, dst []T) []T {
		rx := waitBuf[T](h)
		dst = append(dst, *rx...)
		pool.Put(rx)
		return dst
	}
	combineHold := func() {
		if combine != nil {
			hold = combine(hold)
		}
	}

	if rank >= r {
		// Fold-in: hand everything to the low partner, then await the
		// final batch (receive posted before the send, so the hand-over
		// and the return overlap).
		h := pe.IRecv(rank-r, tag)
		sendCopy(pe, pool, rank-r, tag, hold)
		hold = take(h, flipKeep())
		storeKeep(hold)
	} else {
		if rank < extra {
			// hold still aliases the caller's items here (the fold-in
			// appends onto it): it is not stored as a keep buffer, or a
			// later partition round would write into the caller's slice.
			hold = take(pe.IRecv(rank+r, tag), hold)
			combineHold()
		}
		for bit := 0; bit < dims; bit++ {
			maskBit := 1 << bit
			keep, ship := flipKeep(), bufs.ship[:0]
			for _, it := range hold {
				carrier := dest(it)
				if carrier >= r {
					carrier -= r
				}
				if carrier&maskBit != rank&maskBit {
					ship = append(ship, it)
				} else {
					keep = append(keep, it)
				}
			}
			bufs.ship = ship
			h := pe.IRecv(rank^maskBit, tag)
			sendCopy(pe, pool, rank^maskBit, tag, ship)
			hold = take(h, keep)
			storeKeep(hold)
			combineHold()
		}
		if rank < extra {
			// Unfold: everything for rank+r goes back out.
			mine, theirs := flipKeep(), bufs.ship[:0]
			for _, it := range hold {
				if dest(it) == rank+r {
					theirs = append(theirs, it)
				} else {
					mine = append(mine, it)
				}
			}
			bufs.ship = theirs
			sendCopy(pe, pool, rank+r, tag, theirs)
			hold = mine
			storeKeep(mine)
		}
	}
	combineHold()
	if out != nil {
		out(hold)
	}
	bufs.release(pe)
}

// release returns the buffers to the PE's pool, emptied, keeping their
// capacity.
func (b *routeBufs[T]) release(pe *comm.PE) {
	b.keep[0], b.keep[1], b.ship = b.keep[0][:0], b.keep[1][:0], b.ship[:0]
	comm.PutPooled(pe, b)
}
