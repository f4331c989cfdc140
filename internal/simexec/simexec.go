// Package simexec is test support: the second implementation of
// comm.Executor. Where the production executor spreads the p bodies of a
// run over w scheduler goroutines and lets every send drop straight into
// the receiver's mailbox, an Exec runs all p bodies on the calling
// goroutine, holds every message itself in per-(sender, receiver) FIFO
// streams, and lets a seeded Policy choose each next event — run one of the
// ready PEs, or deliver the head of one of the streams (Machine.Deliver does
// the last hop into the box). It shares no scheduler, no goroutine and no
// arrival order with production, which makes it two things at once:
//
//   - the reference oracle: results and all six comm.Stats fields of a
//     program are defined not to depend on interleaving, so a run here must
//     equal a production run bit for bit;
//   - a schedule explorer: the same program under many seeds and policies
//     must keep giving that one answer, and the seed is a complete
//     reproducer (same seed, same event trace — TraceHash).
//
// Both body forms are scheduled alike: a blocking body (Machine.Run) is a
// coroutine behind a stepper, so running its PE resumes it until it waits
// on a receive or ends.
//
// Only _test.go files import this package.
package simexec

import (
	"runtime"
	"sync"

	"commtopk/internal/comm"
	"commtopk/internal/mailbox"
	"commtopk/internal/xrand"
)

// Policy is how an Exec picks the next event among the ready PEs and the
// streams holding a message.
type Policy int

const (
	// Random picks uniformly over both.
	Random Policy = iota
	// NewestFirst delivers from the stream that most recently went from
	// empty to holding a message; with nothing held it runs the PE readied
	// last.
	NewestFirst
	// Eager delivers whenever anything is held: PEs run against full boxes.
	Eager
	// Lazy runs PEs while any is ready and delivers only once all are
	// suspended: every receive is posted before its message arrives.
	Lazy
	// Starve is Random, except that one rank (chosen by the seed) runs only
	// when nothing else can happen.
	Starve
	// BreakFIFO is Lazy (so streams fill up), but takes the newest message
	// of a stream instead of the oldest. It violates the transport's
	// per-sender FIFO contract on purpose: the tests use it to show they
	// would notice.
	BreakFIFO
)

// Policies lists the contract-respecting policies.
var Policies = []Policy{Random, NewestFirst, Eager, Lazy, Starve}

func (p Policy) String() string {
	return [...]string{"random", "newest-first", "eager", "lazy", "starve", "break-fifo"}[p]
}

// Exec implements comm.Executor. Build one, with its machine, with New.
type Exec struct {
	p       int
	pol     Policy
	rng     *xrand.RNG
	victim  int32 // the rank Starve starves
	deliver func(dst int, msg mailbox.Msg)

	mu   sync.Mutex
	cond sync.Cond
	// streams[dst·(p+1)+src] is the FIFO of messages from src (p: an
	// external Post) to dst. live lists the non-empty streams and ready the
	// runnable ranks, both oldest first. open counts the ranks of the
	// current Run that are not done.
	streams [][]mailbox.Msg
	live    []int32
	ready   []int32
	open    int

	events int64
	hash   uint64
}

// New returns a machine for cfg driven by an Exec with the given seed and
// policy, and the Exec.
func New(cfg comm.Config, seed int64, pol Policy) (*comm.Machine, *Exec) {
	ex := &Exec{p: cfg.P, pol: pol, rng: xrand.New(seed), hash: 14695981039346656037}
	ex.cond.L = &ex.mu
	m := comm.NewMachineOn(cfg, ex)
	// An Exec keeps no goroutine for Close to release, so the machine needs
	// no finalizer — and with one, the machine ↔ executor cycle would never
	// be collected.
	runtime.SetFinalizer(m, nil)
	ex.deliver = m.Deliver
	ex.streams = make([][]mailbox.Msg, cfg.P*(cfg.P+1))
	ex.victim = int32(ex.rng.Intn(cfg.P))
	return m, ex
}

// Reference returns the machine the differential tests pin production
// against: p PEs, comm.DefaultConfig, uniform random schedule, fixed seed.
func Reference(p int) *comm.Machine {
	m, _ := New(comm.DefaultConfig(p), 1, Random)
	return m
}

// Events returns the number of events (PE runs and deliveries) so far.
func (ex *Exec) Events() int64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.events
}

// TraceHash returns a hash of the event sequence so far: which PE ran or
// which stream delivered, in order. Two runs of one program with one seed
// and policy produce the same hash.
func (ex *Exec) TraceHash() uint64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.hash
}

// Workers implements comm.Executor: an Exec keeps no goroutine resident.
func (ex *Exec) Workers() int { return 0 }

// Close implements comm.Executor.
func (ex *Exec) Close() {}

// Run implements comm.Executor: every body on this goroutine, one
// policy-chosen event at a time. Everything sent during the run, and any
// Post held from before it, has been delivered when it returns.
func (ex *Exec) Run(exec func(rank int) bool) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.open = ex.p
	ex.ready = ex.ready[:0]
	for r := 0; r < ex.p; r++ {
		ex.ready = append(ex.ready, int32(r))
	}
	ex.drive(exec)
}

// Ready implements comm.Executor.
func (ex *Exec) Ready(rank int) {
	ex.mu.Lock()
	ex.ready = append(ex.ready, int32(rank))
	ex.mu.Unlock()
	ex.cond.Signal()
}

// Forward implements comm.Executor: hold the message in its stream until
// the run delivers it. The sender is a body the run is driving or an
// external Post, from any goroutine, during a run or before one.
func (ex *Exec) Forward(dst int, msg mailbox.Msg) {
	ex.mu.Lock()
	s := dst*(ex.p+1) + msg.Src
	if len(ex.streams[s]) == 0 {
		ex.live = append(ex.live, int32(s))
	}
	ex.streams[s] = append(ex.streams[s], msg)
	ex.mu.Unlock()
	ex.cond.Signal()
}

// drive performs events until every rank of the run is done and nothing is
// held. Called and returns with ex.mu held; exec and deliver run unlocked,
// since both re-enter (a step sends, a delivery wakes a suspended rank).
func (ex *Exec) drive(exec func(rank int) bool) {
	for ex.open > 0 || len(ex.live) > 0 {
		nr, nl := len(ex.ready), len(ex.live)
		if nr+nl == 0 {
			// Every rank is suspended and nothing is in flight: only an
			// external Post or an abort can move the run.
			ex.cond.Wait()
			continue
		}
		i := ex.pick(nr, nl)
		ex.events++
		if i < nr {
			r := ex.ready[i]
			ex.ready = append(ex.ready[:i], ex.ready[i+1:]...)
			ex.note(uint64(r))
			ex.mu.Unlock()
			done := exec(int(r))
			ex.mu.Lock()
			if done {
				ex.open--
			}
			continue
		}
		s := ex.live[i-nr]
		q := ex.streams[s]
		if ex.pol == BreakFIFO {
			q[0], q[len(q)-1] = q[len(q)-1], q[0]
		}
		msg := q[0]
		q[0] = mailbox.Msg{}
		if ex.streams[s] = q[1:]; len(q) == 1 {
			ex.live = append(ex.live[:i-nr], ex.live[i-nr+1:]...)
		}
		ex.note(1<<32 | uint64(s))
		ex.mu.Unlock()
		ex.deliver(int(s)/(ex.p+1), msg)
		ex.mu.Lock()
	}
}

// note folds one event into the trace hash (FNV-1a over event words).
func (ex *Exec) note(ev uint64) { ex.hash = (ex.hash ^ ev) * 1099511628211 }

// pick returns the next event as an index into ready ++ live.
func (ex *Exec) pick(nr, nl int) int {
	switch ex.pol {
	case NewestFirst:
		return nr + nl - 1
	case Eager:
		if nl > 0 {
			return nr + ex.rng.Intn(nl)
		}
	case Lazy, BreakFIFO:
		if nr > 0 {
			return ex.rng.Intn(nr)
		}
	case Starve:
		i := ex.rng.Intn(nr + nl)
		if i < nr && ex.ready[i] == ex.victim {
			i = (i + 1) % (nr + nl) // the victim itself again only if it is alone
		}
		return i
	}
	return ex.rng.Intn(nr + nl)
}
