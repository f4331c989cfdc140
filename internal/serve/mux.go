package serve

import (
	"cmp"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/freq"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// op is one doorbell's payload: the batch of queries to start. A nil
// *op (or an empty batch) is the poison pill that retires the mux.
type op[K cmp.Ordered] struct {
	queries []*query[K]
}

// slot is one in-flight query on one PE: its stepper, the receive it is
// suspended on (nil when runnable), and the result's landing field.
type slot[K cmp.Ordered] struct {
	q       *query[K]
	step    comm.Stepper
	pending *comm.RecvHandle
	res     K
	resN    int64    // realized batch size (DeleteMin slots only)
	items   []dht.KV // heavy hitters (TopKFreq slots only)
}

// mux is the per-PE tenant multiplexer: one long-lived stepper that
// consumes doorbells from the admission front end and interleaves every
// active query's selection stepper on this PE, switching the PE's
// communication context per slot so the queries' traffic (and collective
// tag sequences) never mix.
//
// Scheduling is a full sweep: every Step invocation tries the doorbell
// and every runnable slot until nothing can progress, then suspends.
// As a comm.MultiWaiter the mux suspends on ALL its pending receives at
// once — the doorbell plus one per waiting slot — so a message for any
// tenant (or a new batch) resumes the PE. A resume storm from one query
// cannot starve another: each sweep revisits every slot, and a slot
// only consumes worker time when one of its messages has arrived.
type mux[K cmp.Ordered] struct {
	srv   *Server[K]
	shard []K              // this PE's resident sorted shard; read-only
	table rankTable        // this PE's share of the resident rank table
	db    *comm.RecvHandle // posted doorbell receive (ctx 0)
	slots []*slot[K]
	// DeleteMin state: the queue is the unpopped suffix shard[cut:], rng
	// its selections' stream, and pqQ the FIFO of DeleteMin slots. cut is
	// shared mutable state across DeleteMin queries, so only the FIFO
	// head runs; dispatch order is identical on every PE (one dispatcher
	// goroutine, per-(src,ctx) FIFO doorbell streams), which keeps the
	// pop order — and with it every query's result and meters —
	// independent of executor, worker count, and inflight depth. Kth slots
	// interleave freely around the FIFO.
	cut     int
	rng     *xrand.RNG
	pqQ     []*slot[K]
	closing bool
}

func newMux[K cmp.Ordered](s *Server[K], pe *comm.PE) *mux[K] {
	r := pe.Rank()
	return &mux[K]{srv: s, shard: s.sorted[r], table: s.tables[r], rng: xrand.NewPE(s.cfg.Seed, r)}
}

// PendingHandles implements comm.MultiWaiter: everything this PE might
// be resumed by.
func (x *mux[K]) PendingHandles(buf []*comm.RecvHandle) []*comm.RecvHandle {
	if x.db != nil {
		buf = append(buf, x.db)
	}
	for _, sl := range x.slots {
		if sl.pending != nil {
			buf = append(buf, sl.pending)
		}
	}
	// Only the FIFO head of the DeleteMin queries can be suspended.
	if len(x.pqQ) > 0 && x.pqQ[0].pending != nil {
		buf = append(buf, x.pqQ[0].pending)
	}
	return buf
}

func (x *mux[K]) Step(pe *comm.PE) *comm.RecvHandle {
	if x.db == nil && !x.closing {
		x.db = pe.IRecv(pe.ExternalSrc(), doorbellTag)
	}
	for {
		progress := false
		if x.db != nil && x.db.Test() {
			rx, _ := x.db.Wait()
			x.db = nil
			progress = true
			if o, _ := rx.(*op[K]); o != nil && len(o.queries) > 0 {
				for _, q := range o.queries {
					x.addSlot(pe, q)
				}
				x.db = pe.IRecv(pe.ExternalSrc(), doorbellTag)
			} else {
				x.closing = true
			}
		}
		// Sweep the slots; completed ones swap-delete out. A slot's Step
		// runs its query as far as arrived messages allow — it returns
		// only when suspended (or done), so each sweep gives every
		// runnable tenant one burst.
		for i := 0; i < len(x.slots); {
			sl := x.slots[i]
			if sl.pending != nil && !sl.pending.Test() {
				i++
				continue
			}
			sl.pending = nil
			progress = true
			if x.stepSlot(pe, sl) {
				last := len(x.slots) - 1
				x.slots[i] = x.slots[last]
				x.slots[last] = nil
				x.slots = x.slots[:last]
				continue
			}
			i++
		}
		// DeleteMin FIFO: step only the head; the next query starts after
		// the head retires, so the cursor moves in dispatch order on
		// every PE.
		if len(x.pqQ) > 0 {
			sl := x.pqQ[0]
			if sl.pending == nil || sl.pending.Test() {
				sl.pending = nil
				progress = true
				if x.stepSlot(pe, sl) {
					copy(x.pqQ, x.pqQ[1:])
					x.pqQ[len(x.pqQ)-1] = nil
					x.pqQ = x.pqQ[:len(x.pqQ)-1]
				}
			}
		}
		if !progress {
			if x.closing && len(x.slots) == 0 && len(x.pqQ) == 0 {
				return nil // retired: poison consumed, tenants drained
			}
			// Suspend. RunAsync arms the mailbox on every handle
			// PendingHandles lists; the one returned is among them.
			if x.db != nil {
				return x.db
			}
			if len(x.slots) > 0 {
				return x.slots[0].pending
			}
			return x.pqQ[0].pending
		}
	}
}

// addSlot starts a dispatched query on this PE. Kth looks up the rank
// table's window around k (a binary search, no messages) and runs the
// sorted-input selection straight on that sub-slice of the resident
// shard (no copy, no size all-reduce: the table knows the window's global
// size); its per-query RNG seed makes the pivot walk (and so the meter)
// independent of interleaving. TopKFreq runs the blocking freq.PAC as a
// nested coroutine body (comm.BodyStep) on its own per-query stream.
// DeleteMin draws from the mux's own stream, which the FIFO consumes in
// dispatch order.
func (x *mux[K]) addSlot(pe *comm.PE, q *query[K]) {
	sl := &slot[K]{q: q}
	pe.SetCtx(q.ctx)
	switch q.kind {
	case kindPQ:
		sl.step = &popStep[K]{x: x, sl: sl}
		x.pqQ = append(x.pqQ, sl)
	case kindFreq:
		shard, rng := x.srv.freqShards[pe.Rank()], xrand.NewPE(q.seed, pe.Rank())
		p := freq.Params{K: int(q.k), Eps: freqEps, Delta: freqDelta}
		sl.step = comm.BodyStep(pe, func(pe *comm.PE) { sl.items = freq.PAC(pe, shard, p, rng).Items })
		x.slots = append(x.slots, sl)
	default:
		lo, hi, base, total := x.table.window(q.k, x.srv.n, len(x.shard))
		sl.step = sel.KthSortedStep(pe, x.shard[lo:hi], total, q.k-base, xrand.NewPE(q.seed, pe.Rank()), func(v K) { sl.res = v })
		x.slots = append(x.slots, sl)
	}
	pe.SetCtx(0)
}

// popStep is one DeleteMin on one PE, the paper's exact deleteMin* on
// locally sorted sequences: a 2-word size all-reduce of [len, min(k,
// len)] over the unpopped suffixes, then the sorted-form selection
// (sel.KthSortedStep) on the first min(k, len) keys of every suffix
// (Appendix A), read in place, and the cursor moves past this PE's keys
// ≤ the agreed threshold. A batch of at least what remains pops
// everything and reports the zero threshold; so does an empty queue,
// with batch size 0. The suffix is read when the FIFO first steps the
// query, after every earlier DeleteMin has moved the cursor.
type popStep[K cmp.Ordered] struct {
	x           *mux[K]
	sl          *slot[K]
	sizes, sums [2]int64
	cur         comm.Stepper
	phase       int
}

// popStep phases.
const (
	popInit  = iota // start the size sum
	popSized        // empty, drain, or start the selection
	popCut          // move the cursor past the batch
)

func addInt64(a, b int64) int64 { return a + b }

func (st *popStep[K]) Step(pe *comm.PE) *comm.RecvHandle {
	x, sl := st.x, st.sl
	for {
		if st.cur != nil {
			if h := st.cur.Step(pe); h != nil {
				return h
			}
			st.cur = nil
		}
		queue := x.shard[x.cut:]
		switch st.phase {
		case popInit:
			n := int64(len(queue))
			st.sizes = [2]int64{n, min(n, sl.q.k)}
			st.cur = coll.AllReduceIntoStep(pe, st.sums[:], st.sizes[:], addInt64, nil)
			st.phase = popSized
		case popSized:
			total := st.sums[0]
			if total == 0 {
				return nil
			}
			if sl.q.k >= total {
				x.cut = len(x.shard)
				sl.resN = total
				return nil
			}
			sl.resN = sl.q.k
			st.cur = sel.KthSortedStep(pe, queue[:st.sizes[1]], st.sums[1], sl.q.k, x.rng, func(v K) { sl.res = v })
			st.phase = popCut
		default:
			x.cut += sel.SliceSeq[K](queue).CountLE(sl.res)
			return nil
		}
	}
}

// stepSlot runs one tenant burst under its context, attributing the
// traffic it performs (sent words and message startups, exact deltas of
// this PE's counters around the burst) to its query. Reports completion.
func (x *mux[K]) stepSlot(pe *comm.PE, sl *slot[K]) (done bool) {
	w0, s0 := pe.SentWords(), pe.Sends()
	pe.SetCtx(sl.q.ctx)
	h := sl.step.Step(pe)
	pe.SetCtx(0)
	if dw := pe.SentWords() - w0; dw != 0 {
		sl.q.words.Add(dw)
	}
	if ds := pe.Sends() - s0; ds != 0 {
		sl.q.sends.Add(ds)
	}
	if h != nil {
		sl.pending = h
		return false
	}
	// The stepper delivered on every PE; rank 0's copy is the ticket's.
	if pe.Rank() == 0 {
		sl.q.t.res = sl.res
		sl.q.t.n = sl.resN
		sl.q.t.items = sl.items
	}
	if sl.q.peLeft.Add(-1) == 0 {
		x.srv.finishQuery(sl.q)
	}
	return true
}
