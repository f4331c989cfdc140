package comm

import (
	"fmt"
	"time"

	"commtopk/internal/mailbox"
)

// Non-blocking communication: IRecv handles with Test/Wait, and
// continuation-scheduled PE bodies (Stepper, Machine.RunAsync).
//
// The paper's machine model assumes an MPI-like substrate where a PE can
// post a receive, keep computing, and synchronize later (MPI_Irecv /
// MPI_Wait). A blocking Recv keeps the waiting body's stack alive; at
// p = 131072 that is most of the machine's memory and host time. The
// handle API decouples the three phases of a receive —
//
//	post (IRecv: no meter effect), bind (the message is matched to the
//	handle; whenever the transport delivers), fold (Wait: the meter —
//	virtual clock, word and receive counters — advances in program
//	order, exactly like a blocking Recv at that point)
//
// — so Recv is literally IRecv followed by Wait, and the two forms are
// bit-identical in results and statistics (pinned by the differential
// suite).
//
// # Handle discipline
//
// Handles are per-PE (never shared across PEs) and pooled: Wait consumes
// and recycles the handle, after which it must not be touched. Multiple
// receives from the same source must be waited in posting order
// (per-sender FIFO is a transport guarantee; the oldest posted handle
// owns the next message). Test may be polled freely; it binds any
// already-delivered messages but never blocks and never folds the meter.
//
// # Continuation-scheduled bodies
//
// A Stepper is a resumable PE body: Step runs until the body either
// completes (returns nil) or cannot proceed before a pending handle is
// bound (returns that handle). Under Machine.RunAsync a Step that returns
// an unbound handle suspends the body as data — the worker goroutine
// returns to the scheduler and keeps driving other PEs — and the
// message's arrival re-enqueues the body on the scheduler's ready list.
// Mid-run goroutine residency is therefore exactly the scheduler width w,
// where a blocking Run also holds a coroutine per PE (coro.go). Steppers
// must suspend via Step: they have no coroutine to yield, so a Wait/Recv
// whose message has not arrived fails the run instead (see suspend).

// handle states.
const (
	hFree    = iota // on the freelist; not a posted receive
	hPending        // posted, no message bound yet
	hBound          // message bound, meter not folded yet
)

// RecvHandle is a posted non-blocking receive (IRecv). Complete it with
// Wait (or poll with Test); handles from the same source complete in
// posting order.
type RecvHandle struct {
	pe    *PE
	src   int
	ctx   uint32 // the PE's communication context at posting time
	tag   Tag
	state uint8
	msg   mailbox.Msg
	// prev/next link the PE's outstanding list while posted, and the
	// freelist (next only) while free.
	prev, next *RecvHandle
}

// IRecv posts a non-blocking receive for the next message from src with
// the given tag, in the PE's current communication context, and returns
// its handle. src may be ExternalSrc (= p) to receive injected messages
// (Machine.Post). Posting has no effect on the meter; the virtual clock
// and counters advance at Wait, in program order, exactly as a blocking
// Recv would at that point. Receives from one (source, context) stream
// must be waited in posting order.
func (pe *PE) IRecv(src int, tag Tag) *RecvHandle {
	if src < 0 || src > pe.p {
		panic(fmt.Sprintf("comm: PE %d: recv from invalid rank %d", pe.rank, src))
	}
	h := pe.getHandle()
	h.src, h.ctx, h.tag, h.state = src, pe.ctx, tag, hPending
	pe.outAppend(h)
	// Eager bind: if the message is already queued (and no older handle
	// for the stream is pending), binding now keeps Test O(1) and Wait
	// free of transport calls on the fast path.
	if h.prevPendingFor(src, h.ctx) == nil {
		if msg, ok := pe.box.TryTakeKey(mailbox.Key(src, h.ctx)); ok {
			pe.bindMsg(h, msg)
		}
	}
	return h
}

// Test reports whether the handle's message has been bound, binding any
// already-delivered messages from the source (in posting order) on the
// way. It never blocks and never advances the meter.
func (h *RecvHandle) Test() bool {
	switch h.state {
	case hBound:
		return true
	case hFree:
		panic("comm: Test on a completed or unposted RecvHandle")
	}
	pe := h.pe
	for {
		g := pe.oldestPendingFor(h.src, h.ctx)
		msg, ok := pe.box.TryTakeKey(mailbox.Key(h.src, h.ctx))
		if !ok {
			return false
		}
		pe.bindMsg(g, msg)
		if h.state == hBound {
			return true
		}
	}
}

// Wait completes the receive: it suspends a blocking body until the
// message is bound (a stepper suspends via Step instead, so its Wait
// never waits), folds the meter — clock, word and message counters, exactly
// like Recv — and returns the payload and its size in words. The handle
// is consumed and recycled; it must not be used afterwards.
func (h *RecvHandle) Wait() (any, int64) {
	pe := h.pe
	switch h.state {
	case hFree:
		panic("comm: Wait on a completed or unposted RecvHandle")
	case hPending:
		pe.fillUntil(h)
	}
	msg := h.msg
	// Single-ported receive: the transfer occupies this PE for α+βm,
	// starting no earlier than when the sender started transmitting and
	// no earlier than the PE's own clock (see Recv).
	cost := pe.alpha + pe.beta*float64(msg.Words)
	avail := msg.Depart - cost
	if avail < pe.clock {
		avail = pe.clock
	}
	pe.clock = avail + cost
	pe.recvWords += msg.Words
	pe.recvs++
	pe.outUnlink(h)
	pe.putHandle(h)
	return msg.Data, msg.Words
}

// prevPendingFor returns the closest older pending handle for the
// (src, ctx) stream before h in the outstanding list, or nil.
func (h *RecvHandle) prevPendingFor(src int, ctx uint32) *RecvHandle {
	for g := h.prev; g != nil; g = g.prev {
		if g.src == src && g.ctx == ctx && g.state == hPending {
			return g
		}
	}
	return nil
}

// oldestPendingFor returns the oldest pending handle for the (src, ctx)
// stream. The caller guarantees one exists.
func (pe *PE) oldestPendingFor(src int, ctx uint32) *RecvHandle {
	for g := pe.outHead; g != nil; g = g.next {
		if g.src == src && g.ctx == ctx && g.state == hPending {
			return g
		}
	}
	panic(fmt.Sprintf("comm: PE %d: no pending receive from %d ctx %d", pe.rank, src, ctx))
}

// fillUntil takes messages from h's stream, binding them to the pending
// handles for that stream in posting order, until h is bound; while the
// stream is empty the body is suspended.
func (pe *PE) fillUntil(h *RecvHandle) {
	for h.state != hBound {
		if msg, ok := pe.box.TryTakeKey(mailbox.Key(h.src, h.ctx)); ok {
			pe.bindMsg(pe.oldestPendingFor(h.src, h.ctx), msg)
		} else {
			pe.suspend(h)
		}
	}
}

// suspend yields the running blocking body on h, which is not bound: its
// driver suspends on h, and the body resumes here once a message for h's
// stream has arrived, or the run aborts. The body's yield goes back into
// pe.yield on resumption: the driver of a nested body restored its own
// while this one was suspended. A stepper has no coroutine to yield, so a
// wait whose message has not arrived is a bug in the stepper (it must
// return the handle from Step instead) and fails the run like any other
// panic.
func (pe *PE) suspend(h *RecvHandle) {
	yield := pe.yield
	if yield == nil {
		panic("blocking receive inside a Stepper under RunAsync: the message has not arrived; return the pending handle from Step instead of calling Wait/Recv")
	}
	t0 := time.Now()
	ok := yield(h)
	pe.yield = yield
	pe.waitNs += time.Since(t0).Nanoseconds()
	if !ok {
		panic(abortedError{}) // stopped on the abort path: unwind the body
	}
}

// bindMsg attaches a delivered message to its handle, enforcing the SPMD
// tag discipline exactly like Recv.
func (pe *PE) bindMsg(h *RecvHandle, msg mailbox.Msg) {
	if Tag(msg.Tag) != h.tag {
		panic(fmt.Sprintf("comm: PE %d: tag mismatch receiving from %d: got %d want %d (desynchronized SPMD program)",
			pe.rank, h.src, msg.Tag, h.tag))
	}
	h.msg = msg
	h.state = hBound
}

// getHandle pops a pooled handle (per-PE freelist, so steady-state
// IRecv — and therefore Recv — allocates nothing).
func (pe *PE) getHandle() *RecvHandle {
	h := pe.freeH
	if h == nil {
		return &RecvHandle{pe: pe}
	}
	pe.freeH = h.next
	h.next = nil
	return h
}

// putHandle recycles a consumed handle, dropping the payload reference.
func (pe *PE) putHandle(h *RecvHandle) {
	h.state = hFree
	h.msg = mailbox.Msg{}
	h.prev = nil
	h.next = pe.freeH
	pe.freeH = h
}

// outAppend adds h at the tail of the outstanding list.
func (pe *PE) outAppend(h *RecvHandle) {
	h.prev = pe.outTail
	h.next = nil
	if pe.outTail != nil {
		pe.outTail.next = h
	} else {
		pe.outHead = h
	}
	pe.outTail = h
}

// outUnlink removes h from the outstanding list.
func (pe *PE) outUnlink(h *RecvHandle) {
	if h.prev != nil {
		h.prev.next = h.next
	} else {
		pe.outHead = h.next
	}
	if h.next != nil {
		h.next.prev = h.prev
	} else {
		pe.outTail = h.prev
	}
	h.prev, h.next = nil, nil
}

// resetAsync drops any outstanding handles, the current stepper and the
// context state — abort-path cleanup so a machine is reusable after a
// failed run. Every blocking body still suspended in a coroutine — the
// run's own and any nested one (BodyStep) — is stopped first: its yield
// returns false and the body unwinds. The collective tag sequences
// restart too: the bodies unwound at different collectives, and a
// constant (rather than, say, the local maximum) lets the processes of a
// windowed machine agree without talking.
func (pe *PE) resetAsync() {
	for n := len(pe.coros); n > 0; n = len(pe.coros) {
		c := pe.coros[n-1]
		pe.coros[n-1] = nil
		pe.coros = pe.coros[:n-1]
		c.stop()
	}
	pe.step = nil
	pe.yield = nil
	pe.ctx = 0
	pe.collSeq = 0
	clear(pe.collSeqCtx)
	for h := pe.outHead; h != nil; {
		next := h.next
		pe.putHandle(h)
		h = next
	}
	pe.outHead, pe.outTail = nil, nil
}

// Stepper is a resumable PE body: Step runs as far as it can and returns
// nil when the body is done, or the pending RecvHandle it cannot proceed
// without. The scheduler re-invokes Step once that handle's message has
// arrived (the handle is then bound, so the stepper's Wait on it will
// not wait). Step must tolerate re-invocation at the same point and
// must not block: under RunAsync a Wait/Recv whose message has not
// arrived fails the run (use Step-suspension instead).
type Stepper interface {
	Step(pe *PE) *RecvHandle
}

// MultiWaiter is an optional Stepper extension for bodies multiplexing
// several independent protocols — the serving mux, whose query slots
// suspend on handles in different communication contexts. A plain
// Stepper suspends on exactly the one handle Step returned; a
// MultiWaiter body instead advertises every handle it could resume on,
// and the scheduler arms its mailbox on all of them (ArmKeys), so
// whichever query's message arrives first resumes the body. Without
// this, two PEs can deadlock each blocked on the other query's traffic
// even though both queries are individually deadlock-free. A MultiWaiter
// runs only as a RunAsync body; RunSteps rejects one.
type MultiWaiter interface {
	Stepper
	// PendingHandles appends the pending (unbound) handles the body is
	// currently suspended on to buf and returns it. Called only when
	// Step has just returned a non-nil handle; that handle must be
	// among them.
	PendingHandles(buf []*RecvHandle) []*RecvHandle
}

// StepFunc adapts a closure (typically over its own mutable state) to
// the Stepper interface.
type StepFunc func(pe *PE) *RecvHandle

// Step implements Stepper.
func (f StepFunc) Step(pe *PE) *RecvHandle { return f(pe) }

// SeqP composes steppers into one body that runs them to completion in
// order — the building block for multi-collective continuation bodies.
// The composition state is drawn from the PE's stepper pool (see
// steppool.go) and released when the sequence completes, so a body built
// fresh every op allocates nothing in steady state. The variadic argument
// slice is copied, not retained.
func SeqP(pe *PE, steps ...Stepper) Stepper {
	s := GetPooled[seqStep](pe)
	s.steps = append(s.steps[:0], steps...)
	s.i = 0
	return s
}

type seqStep struct {
	steps []Stepper
	i     int
}

func (s *seqStep) Step(pe *PE) *RecvHandle {
	for s.i < len(s.steps) {
		if h := s.steps[s.i].Step(pe); h != nil {
			return h
		}
		// Completed steppers release their own state; drop the reference
		// so a pooled sequence does not retain it.
		s.steps[s.i] = nil
		s.i++
	}
	s.steps = s.steps[:0]
	PutPooled(pe, s)
	return nil
}

// RunSteps drives a stepper to completion inside a blocking body (Run),
// suspending the body between Step calls on the handle Step returned —
// the bridge that lets one stepper implementation serve both forms. A
// MultiWaiter would need a wait on any of several handles, which a
// blocking body does not have: RunSteps panics on one.
func RunSteps(pe *PE, st Stepper) {
	if _, ok := st.(MultiWaiter); ok {
		panic("comm: RunSteps on a MultiWaiter; run it as a RunAsync body")
	}
	for {
		h := st.Step(pe)
		if h == nil {
			return
		}
		if h.state == hPending {
			pe.fillUntil(h)
		}
	}
}

// RunAsync executes a continuation-scheduled SPMD program: start is
// called once per PE and returns the PE's body as a Stepper (nil for an
// empty body). The scheduler drives the steppers directly — a suspension
// returns the worker to the scheduler, so the machine holds exactly w
// goroutines even while thousands of PE bodies are waiting
// mid-collective, and an empty RunAsync on a warm machine allocates
// nothing. Results and statistics are bit-identical to the equivalent
// blocking Run. Error semantics and machine reuse match Run; in addition,
// a stepper (or start itself) that reaches a receive whose message has
// not arrived fails the run — it has no coroutine to suspend.
func (m *Machine) RunAsync(start func(pe *PE) Stepper) error {
	m.asyncStart = start
	m.ex.Run(m.execAsync)
	m.asyncStart = nil
	return m.finishRun()
}

// MustRunAsync is RunAsync but panics on error.
func (m *Machine) MustRunAsync(start func(pe *PE) Stepper) {
	if err := m.RunAsync(start); err != nil {
		panic(err)
	}
}

// execAsyncRank drives one PE's stepper as far as it can go. Returning
// false suspends the rank: its mailbox is armed, and the arming message's
// arrival (or an abort) re-enqueues the rank via the scheduler's ready
// queue. Created once per machine (execAsync field) so RunAsync dispatch
// does not allocate per rank.
func (m *Machine) execAsyncRank(rank int) (done bool) {
	pe := m.pes[rank]
	defer func() {
		if r := recover(); r != nil {
			m.bodyPanicked(pe, r)
			m.foldStats(pe)
			done = true // the rank is finished (it failed), not suspended
		}
	}()
	if pe.step == nil {
		pe.step = m.asyncStart(pe)
		if pe.step == nil {
			m.foldStats(pe)
			return true
		}
	}
	for {
		h := pe.step.Step(pe)
		if h == nil {
			pe.step = nil
			m.foldStats(pe)
			return true
		}
		if h.state != hBound {
			if pe.arm(h) {
				// Suspended: the body exists only as data (pe.step plus the
				// armed box) until the message arrives. No goroutine parks.
				return false
			}
			if pe.box.Interrupted() {
				// Machine abort: the awaited message will never come and a
				// Test-polling stepper would spin. Unwind (recovered above;
				// a blocking body's coroutine is stopped on the way).
				panic(abortedError{})
			}
		}
		// The message arrived while arming (or was already bound): keep
		// stepping on this worker.
	}
}

// arm arms pe's mailbox for the body suspended on h. It reports false
// when a matching message is already queued or the box is interrupted.
func (pe *PE) arm(h *RecvHandle) bool {
	mw, ok := pe.step.(MultiWaiter)
	if !ok {
		return pe.box.ArmKey(mailbox.Key(h.src, h.ctx))
	}
	// A multi-query body resumes when ANY pending receive can bind, not
	// just the one Step happened to return — arming on a single key would
	// strand progress on the others.
	pe.hBuf = mw.PendingHandles(pe.hBuf[:0])
	keys := pe.keyBuf[:0]
	for _, g := range pe.hBuf {
		keys = append(keys, mailbox.Key(g.src, g.ctx))
	}
	pe.keyBuf = keys
	return pe.box.ArmKeys(keys)
}
