package mailbox

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Sched is the sharded worker scheduler that runs every PE body as a
// continuation (comm.RunAsync steppers, and comm.Machine.Run's blocking
// bodies as coroutines behind a stepper): p ranks multiplexed over w ≪ p
// permanent worker goroutines, so a machine costs w goroutine stacks —
// not p — between runs, and while thousands of stepper bodies wait
// mid-collective.
//
//   - Each worker owns one shard, a contiguous rank range with a cursor.
//     Kicked once per Run, it claims fresh ranks off the cursor in small
//     batches (one atomic per popBatch ranks) and calls exec on each.
//   - exec reports whether the rank is done. false means the body
//     suspended itself: it armed its mailbox and now exists only as
//     data. When the armed message arrives, the box's notify callback
//     calls Ready(rank); the rank joins its shard's ready list and is
//     re-run (same protocol) by whichever worker pops it first.
//   - exec must not block: a worker stuck in a body drives neither its
//     cursor nor any ready list. A blocking body waiting on a receive
//     yields its coroutine instead, so it may wait only on receives; one
//     blocked on anything else holds its worker.
//
// Since no worker ever blocks in a body, every worker always returns to
// its select loop, which is the whole liveness argument: a kick or a
// ready token left in a channel is eventually consumed.
//
// The goroutine count is exactly w from the first Run until Close, pinned
// between runs by TestMailboxGoroutineCountResident and mid-run by
// TestRunAsyncMidRunResidency (both in internal/comm). StateBytes reports
// the scheduler's own footprint so the machine-memory estimators stay
// honest.
//
// Concurrency contract: Run and Close are called from one coordinating
// goroutine at a time, and exec must not panic (wrap bodies with recover
// at the call site). Ready is called from any goroutine, but only for a
// rank whose exec previously returned false — and only once per
// suspension.
type Sched struct {
	shards []shard
	// kick[i] (buffered, cap 1) starts worker i on its own shard's cursor,
	// once per Run; closing it ends the worker.
	kick []chan struct{}
	// The ready lists of resumed ranks are intrusive FIFOs threaded
	// through readyNext, one per shard (shardOf maps rank → shard) so
	// resume storms from many producer threads spread over w mutexes
	// instead of serializing on one. readyCount spans all of them and
	// makes the empty check lock-free. readyCh (buffered, cap w) carries
	// coalesced wake-ups for workers parked in select.
	shardOf    []int32
	readyNext  []int32
	readyCount atomic.Int32
	readyCh    chan struct{}
	// wg counts ranks still open in the current Run.
	wg      sync.WaitGroup
	exec    func(rank int) bool
	started bool

	closeOnce sync.Once
}

// popBatch is the number of ranks a worker claims per cursor atomic.
const popBatch = 8

// shard is one worker's share: the contiguous rank range [lo, hi), the
// cursor of the next fresh rank, and the ready list of resumed ranks in
// the range. The cursor is atomic because workers overlap run
// boundaries: one that has just finished the run's last body (releasing
// the WaitGroup) re-checks its cursor while the coordinator may already
// be resetting it for the next run. Fetch-add claims make that safe —
// each batch is claimed once, and a straggler that claims ranks of the
// new run simply runs them (its cursor load orders it after the
// coordinator's exec/WaitGroup writes).
type shard struct {
	lo, hi int
	next   atomic.Int32

	rMu          sync.Mutex
	rHead, rTail int32
}

// NewSched creates a scheduler for p ranks over w shards (clamped to
// 1 ≤ w ≤ p). No goroutines are started until the first Run.
func NewSched(p, w int) *Sched {
	w = max(1, min(w, p))
	sc := &Sched{
		shards:    make([]shard, w),
		kick:      make([]chan struct{}, w),
		shardOf:   make([]int32, p),
		readyNext: make([]int32, p),
		readyCh:   make(chan struct{}, w),
	}
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.lo, sh.hi = i*p/w, (i+1)*p/w
		sh.next.Store(int32(sh.hi)) // empty until Run
		sh.rHead, sh.rTail = -1, -1
		sc.kick[i] = make(chan struct{}, 1)
		for r := sh.lo; r < sh.hi; r++ {
			sc.shardOf[r] = int32(i)
		}
	}
	return sc
}

// Workers returns the shard count w.
func (sc *Sched) Workers() int { return len(sc.shards) }

// Run executes exec(rank) for every rank and blocks until every rank is
// done. exec reports whether the rank completed: false means the body
// suspended itself (after arming its mailbox) and will be re-executed —
// possibly on a different worker — once Ready(rank) is called.
func (sc *Sched) Run(exec func(rank int) bool) {
	sc.exec = exec
	sc.wg.Add(len(sc.shardOf))
	for i := range sc.shards {
		sc.shards[i].next.Store(int32(sc.shards[i].lo))
	}
	if !sc.started {
		sc.started = true
		for i := range sc.kick {
			go sc.worker(int32(i))
		}
	}
	for _, c := range sc.kick {
		c <- struct{}{}
	}
	sc.wg.Wait()
	sc.exec = nil
}

// Ready re-enqueues a suspended rank whose awaited message has arrived
// (the mailbox notify callback). Safe from any goroutine; the rank is
// picked up by a worker between bodies or by a parked one via readyCh.
func (sc *Sched) Ready(rank int) {
	sh := &sc.shards[sc.shardOf[rank]]
	sh.rMu.Lock()
	sc.readyNext[rank] = -1
	if sh.rTail >= 0 {
		sc.readyNext[sh.rTail] = int32(rank)
	} else {
		sh.rHead = int32(rank)
	}
	sh.rTail = int32(rank)
	sc.readyCount.Add(1)
	sh.rMu.Unlock()
	select {
	case sc.readyCh <- struct{}{}:
	default:
		// readyCh full: w wake-ups are already pending, and every waking
		// worker drains the lists to empty before re-parking.
	}
}

// popReady dequeues one resumed rank, or -1. The calling worker's own
// list is tried first, then the others round-robin — work stealing, so a
// resume never waits on the locality preference. A pop may return -1
// while readyCount is transiently positive (a push landing behind the
// scan); that push's readyCh token covers the window.
func (sc *Sched) popReady(own int32) int {
	if sc.readyCount.Load() == 0 {
		return -1
	}
	w := int32(len(sc.shards))
	for off := int32(0); off < w; off++ {
		sh := &sc.shards[(own+off)%w]
		sh.rMu.Lock()
		r := sh.rHead
		if r < 0 {
			sh.rMu.Unlock()
			continue
		}
		sh.rHead = sc.readyNext[r]
		if sh.rHead < 0 {
			sh.rTail = -1
		}
		sc.readyCount.Add(-1)
		sh.rMu.Unlock()
		return int(r)
	}
	return -1
}

// worker is one of the w permanent scheduler goroutines: woken by its
// kick (a new Run) or by readyCh (a resume), it drives until nothing is
// runnable and parks again.
func (sc *Sched) worker(own int32) {
	for {
		select {
		case _, ok := <-sc.kick[own]:
			if !ok {
				return
			}
		case <-sc.readyCh:
		}
		sc.drive(own)
	}
}

// drive runs everything runnable from worker own's point of view —
// resumed ranks of any shard first, then fresh cursor batches of its own
// — until neither is left.
func (sc *Sched) drive(own int32) {
	sh := &sc.shards[own]
	for {
		if r := sc.popReady(own); r >= 0 {
			sc.runOne(r)
			continue
		}
		// Load before claiming: a resume wake-up on a drained shard must not
		// advance the cursor, or a long-lived run would overflow it.
		if int(sh.next.Load()) >= sh.hi {
			return
		}
		lo := int(sh.next.Add(popBatch) - popBatch)
		for r := lo; r < min(lo+popBatch, sh.hi); r++ {
			sc.runOne(r)
		}
	}
}

// runOne executes rank r's body. A suspended body (exec false) leaves the
// rank open: it re-runs via Ready, possibly already concurrently with our
// return.
func (sc *Sched) runOne(r int) {
	if sc.exec(r) {
		sc.wg.Done()
	}
}

// Close releases the worker goroutines. Must not overlap a Run; Run must
// not be called afterwards. Idempotent.
func (sc *Sched) Close() {
	sc.closeOnce.Do(func() {
		for _, c := range sc.kick {
			close(c)
		}
	})
}

// StateBytes estimates the scheduler's resident memory for p ranks and w
// shards: shard, kick-channel and ready-list bookkeeping plus the w
// worker goroutine stacks. Goroutine stacks start at ~8 KB of reserved
// address space; the estimate charges that in full so machine-memory
// claims err high.
func StateBytes(p, w int) int64 {
	w = max(1, min(w, p))
	const stackBytes = 8 << 10
	const kickBytes = 96 + 16 // hchan + slot + slice entry
	const perRank = 4 + 4     // readyNext + shardOf
	return int64(w)*(int64(unsafe.Sizeof(shard{}))+kickBytes+stackBytes) + int64(p)*perRank
}
