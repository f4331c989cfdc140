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

// slot is one in-flight DeleteMin or TopKFreq query on one PE: its
// stepper, the receive it is suspended on (nil when runnable), and the
// result's landing field.
type slot[K cmp.Ordered] struct {
	q       *query[K]
	step    comm.Stepper
	pending *comm.RecvHandle
	res     K
	resN    int64    // realized batch size (DeleteMin slots only)
	items   []dht.KV // heavy hitters (TopKFreq slots only)
}

// lane is one admitted Kth query on one PE: a lane of the mux's
// selection engine, and its answer once the engine has delivered it.
type lane[K cmp.Ordered] struct {
	q    *query[K]
	res  K
	done bool
}

// mux is the per-PE tenant multiplexer: one long-lived stepper that
// consumes doorbells from the admission front end and interleaves, on
// this PE, every TopKFreq and DeleteMin query's stepper, each under its
// own communication context, with one selection engine that runs all of
// its Kth queries as lanes under the server's Kth context.
//
// Scheduling is a full sweep: every Step invocation tries the doorbell,
// every runnable slot and the engine until nothing can progress, then
// suspends. As a comm.MultiWaiter the mux suspends on ALL its pending
// receives at once — the doorbell plus one per waiting slot and the
// engine's — so a message for any tenant (or a new batch) resumes the
// PE. A resume storm from one query cannot starve another: each sweep
// revisits every slot, and a slot only consumes worker time when one of
// its messages has arrived.
//
// Kth admission is the engine's Feed (Ready, Next, Done). An idle engine
// starts with the oldest Kth query it has not admitted, kthQ's head;
// every PE receives the same doorbells in the same order, so every PE
// starts the same lane. A running engine admits at each level every Kth
// query the root (rank 0) has received, and every other PE admits as
// many from the head of its kthQ — waiting on its doorbell receive for
// one that has not arrived yet.
type mux[K cmp.Ordered] struct {
	srv   *Server[K]
	shard []K              // this PE's resident sorted shard; read-only
	table rankTable        // this PE's share of the resident rank table
	db    *comm.RecvHandle // posted doorbell receive (ctx 0)
	slots []*slot[K]
	// The Kth engine (nil while idle), the receive it waits on (nil when
	// runnable; onDB: it waits for a doorbell to bring the next Kth
	// query), the dispatched Kth queries it has not admitted, in dispatch
	// order, and its lanes.
	eng   comm.Stepper
	wait  *comm.RecvHandle
	onDB  bool
	kthQ  []*query[K]
	lanes []lane[K]
	// DeleteMin state: the queue is the unpopped suffix shard[cut:], rng
	// its selections' stream, and pqQ the FIFO of DeleteMin slots. cut is
	// shared mutable state across DeleteMin queries, so only the FIFO
	// head runs; dispatch order is identical on every PE (one dispatcher
	// goroutine, per-(src,ctx) FIFO doorbell streams), which keeps the
	// pop order — and with it every query's result and meters —
	// independent of executor, worker count, and inflight depth. TopKFreq
	// slots and the Kth engine interleave freely around the FIFO.
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
	if x.wait != nil {
		buf = append(buf, x.wait)
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
					if q.kind == kindKth {
						x.kthQ = append(x.kthQ, q)
					} else {
						x.addSlot(pe, q)
					}
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
					x.pqQ = popFront(x.pqQ)
				}
			}
		}
		if x.eng == nil && len(x.kthQ) > 0 {
			x.eng = sel.KthSortedLanesStep[K](pe, x, 1)
		}
		if x.eng != nil && (x.onDB && len(x.kthQ) > 0 || !x.onDB && (x.wait == nil || x.wait.Test())) {
			progress = true
			x.stepEngine(pe)
		}
		if !progress {
			if x.closing && len(x.slots) == 0 && len(x.pqQ) == 0 && x.eng == nil {
				return nil // retired: poison consumed, tenants drained
			}
			// Suspend. RunAsync arms the mailbox on every handle
			// PendingHandles lists; the one returned is among them.
			switch {
			case x.db != nil:
				return x.db
			case len(x.slots) > 0:
				return x.slots[0].pending
			case len(x.pqQ) > 0:
				return x.pqQ[0].pending
			}
			return x.wait
		}
	}
}

// addSlot starts a dispatched DeleteMin or TopKFreq query on this PE.
// TopKFreq runs the blocking freq.PAC as a nested coroutine body
// (comm.BodyStep) on its own per-query stream. DeleteMin draws from the
// mux's own stream, which the FIFO consumes in dispatch order.
func (x *mux[K]) addSlot(pe *comm.PE, q *query[K]) {
	sl := &slot[K]{q: q}
	pe.SetCtx(q.ctx)
	if q.kind == kindPQ {
		sl.step = &popStep[K]{x: x, sl: sl}
		x.pqQ = append(x.pqQ, sl)
	} else {
		shard, rng := x.srv.freqShards[pe.Rank()], xrand.NewPE(q.seed, pe.Rank())
		p := freq.Params{K: int(q.k), Eps: freqEps, Delta: freqDelta}
		sl.step = comm.BodyStep(pe, func(pe *comm.PE) { sl.items = freq.PAC(pe, shard, p, rng).Items })
		x.slots = append(x.slots, sl)
	}
	pe.SetCtx(0)
}

// Ready implements sel.Feed on rank 0: the engine admits every Kth query
// this PE has received.
func (x *mux[K]) Ready() int { return len(x.kthQ) }

// Next implements sel.Feed: the next Kth query of the dispatch order as a
// lane, or the doorbell receive that will bring it. The lane is the
// sorted-input selection straight on the rank table's window around k, a
// sub-slice of the resident shard (arithmetic, no messages, no copy),
// with the query's own stream, so its pivot walk does not depend on which
// lanes share its levels.
func (x *mux[K]) Next(pe *comm.PE) (sel.Lane[K], *comm.RecvHandle) {
	if len(x.kthQ) == 0 {
		if x.db == nil {
			panic("serve: a Kth lane was announced after the poison doorbell")
		}
		return sel.Lane[K]{}, x.db
	}
	q := x.kthQ[0]
	x.kthQ = popFront(x.kthQ)
	x.lanes = append(x.lanes, lane[K]{q: q})
	lo, hi, total, kRem := x.table.window(q.k)
	return sel.Lane[K]{Sorted: x.shard[lo:hi], N: total, K: kRem, Seed: q.seed, ID: q.id}, nil
}

// Done implements sel.Feed: lane id has its answer on this PE, and its
// meters here, which the query's ticket sums over the PEs.
func (x *mux[K]) Done(_ *comm.PE, id int, v K, words, sends int64) {
	for i := range x.lanes {
		if l := &x.lanes[i]; l.q.id == id {
			l.res, l.done = v, true
			l.q.words.Add(words)
			l.q.sends.Add(sends)
			return
		}
	}
	panic("serve: the engine finished a lane the mux does not know")
}

// stepEngine runs one engine burst under the Kth context. The engine
// meters every lane itself (Done); lanes that finished complete their
// tickets after the burst.
func (x *mux[K]) stepEngine(pe *comm.PE) {
	pe.SetCtx(x.srv.kthCtx)
	h := x.eng.Step(pe)
	pe.SetCtx(0)
	j := 0
	for _, l := range x.lanes {
		if !l.done {
			x.lanes[j] = l
			j++
			continue
		}
		if pe.Rank() == 0 {
			l.q.t.res = l.res
		}
		if l.q.peLeft.Add(-1) == 0 {
			x.srv.finishQuery(l.q)
		}
	}
	clear(x.lanes[j:])
	x.lanes = x.lanes[:j]
	x.wait, x.onDB = h, false
	switch {
	case h == nil:
		x.eng = nil
	case h == x.db:
		x.wait, x.onDB = nil, true
	}
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

// popFront removes a FIFO's head in place, so the FIFO keeps its backing
// array (and appending to it stays allocation-free).
func popFront[T any](q []T) []T {
	copy(q, q[1:])
	clear(q[len(q)-1:])
	return q[:len(q)-1]
}
