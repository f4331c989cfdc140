// Package comm provides the distributed-machine substrate the paper's
// algorithms run on: p processing elements (PEs) executing the same SPMD
// program, exchanging point-to-point messages through one mailbox per
// receiver (internal/mailbox).
//
// The package meters every message in machine words and startups, and keeps
// a per-PE "LogP-lite" virtual clock so the paper's cost model
// O(x + βy + αz) is directly observable: x (local work) is wall time,
// y (bottleneck communication volume) and z (startups) are counters, and
// the virtual clock approximates the α/β critical path.
//
// Cost model (Section 2 of the paper): single-ported full-duplex
// communication; sending a message of m machine words takes time α + mβ.
// Send advances the sender's virtual clock by α+βm and stamps the message
// with the resulting time; Recv advances the receiver's clock to the
// maximum of its own clock and the stamp. Local computation is not added
// to the virtual clock.
//
// Communication is available in blocking form (Send/Recv/SendRecv) and
// non-blocking form (IRecv handles with Test/Wait — the
// MPI_Irecv/MPI_Wait shape the paper's substrate assumes); Recv is sugar
// for IRecv+Wait, and the meter folds at Wait in program order, so both
// forms are bit-identical in results and statistics. Every PE body runs
// on the scheduler's w ≪ p workers. Machine.RunAsync takes Stepper bodies,
// where a wait on an unbound handle suspends the body as data — see
// async.go. Machine.Run takes a blocking body and runs it as a coroutine
// behind a stepper: a receive that would wait yields its handle, and the
// body is suspended like any stepper — see coro.go. A blocking body may
// therefore wait only on comm receives; one blocked on anything else holds
// its worker.
//
// # Transport and the executor seam
//
// There is one transport. A send is a Put into the receiver's
// mailbox.Box — O(p) queue memory, per-(sender, context) FIFO delivery —
// and a receive takes from the PE's own box; both are direct calls on the
// concrete box. With Config.Remote set the machine is one process's rank
// window of a larger machine (internal/wire) and a send addressed outside
// the window leaves through Remote.Forward instead.
//
// Two cold-path decisions sit behind the Executor interface: who drives
// the bodies of a run, and where a send goes that has no local box.
// NewMachine installs the production answer — the sharded scheduler of
// internal/mailbox, w = min(GOMAXPROCS·8, p) goroutines resident between
// runs and mid-run alike, which scales to p = 131072 (see the scaling
// suite in internal/experiments), and Remote.Forward. NewMachineOn takes
// another: internal/simexec, test support only, runs every body on one
// goroutine and carries every message itself, delivering in an order a
// seeded policy picks — the reference the differential tests pin results
// and meters against, and the way they explore schedules.
package comm

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"commtopk/internal/mailbox"
)

// Tag identifies the protocol step a message belongs to. Collectives draw
// tags from a per-PE sequence that stays synchronized because every PE
// enters every collective (SPMD); point-to-point protocols use explicit
// tags. A tag mismatch on receive indicates a desynchronized program and
// panics immediately rather than silently mismatching payloads.
type Tag uint64

// Config describes the simulated machine: the paper's three parameters
// (P, Alpha, Beta), the RNG Seed, the scheduler width Workers and, for
// one process of a multi-process machine, Remote. The zero value of every
// field but P is usable.
type Config struct {
	// P is the number of processing elements.
	P int
	// Alpha is the modeled message startup cost (arbitrary time units).
	Alpha float64
	// Beta is the modeled per-word transfer cost (same units as Alpha).
	Beta float64
	// Seed seeds the per-PE deterministic RNG streams (see NewPERandSeed).
	Seed int64
	// Workers is the scheduler width w: the number of goroutines the p
	// bodies of a run — steppers, and blocking bodies as coroutines — are
	// multiplexed over, and the machine's resident goroutine budget. 0
	// selects min(GOMAXPROCS·8, p); any value is clamped to [1, p].
	// Execution results and metering are independent of w (pinned by the
	// differential tests); w only trades host parallelism against resident
	// memory.
	Workers int
	// Remote, when set, windows the machine to its process-local
	// contiguous rank range. See Remote.
	Remote *Remote
}

// Remote makes a machine one process of a multi-process machine:
// it owns only the contiguous local rank window [Lo, Hi) of the full
// p-PE machine and hands every message addressed outside the window to
// Forward — the seam internal/wire plugs its socket transport into.
// Incoming cross-process messages are injected with Machine.Deliver.
// Metering is unchanged: the sender stamps depart before the frame
// leaves, the frame carries the stamp, and the receiver folds the α/β
// receive rule against it, so results and per-PE meters are bit-identical
// to an in-process machine.
type Remote struct {
	// Lo, Hi bound the local window [Lo, Hi): this process constructs
	// boxes, PEs and scheduler state for exactly these ranks.
	Lo, Hi int
	// Forward ships a message addressed to a non-local rank (or an
	// external Post to one) across the transport. Called synchronously
	// from the sending PE's goroutine — it must not block indefinitely
	// (the wire transport enqueues to a per-connection writer). The
	// message arrives at the owning process via Machine.Deliver.
	Forward func(dst int, msg mailbox.Msg)
}

// DefaultConfig returns a machine configuration with p PEs and the
// default α/β ratio used throughout the benchmarks (α = 1000β, a typical
// cluster-interconnect ratio of startup latency to per-word bandwidth).
func DefaultConfig(p int) Config {
	return Config{P: p, Alpha: 1000, Beta: 1, Seed: 1}
}

// SchedWorkers resolves the scheduler width w for cfg: the explicit
// cfg.Workers clamped to [1, p], or min(GOMAXPROCS·8, p) when unset.
func SchedWorkers(cfg Config) int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0) * 8
	}
	return max(1, min(w, localP(cfg)))
}

// localP is the number of PEs this process hosts: the Remote window for
// a windowed machine, all of cfg.P otherwise.
func localP(cfg Config) int {
	if cfg.Remote != nil {
		return cfg.Remote.Hi - cfg.Remote.Lo
	}
	return cfg.P
}

// MachineBytes estimates the resident cost of a machine NewMachine builds
// for cfg: one empty intake box and one PE handle per local rank plus the
// scheduler state — shard bookkeeping and the w worker goroutine stacks.
// All of it is O(p). A test pins the estimate against the measured live
// heap. Run state is not included: in-flight messages are
// workload-dependent, and a blocking Run adds a coroutine stack per local
// PE until it returns.
func MachineBytes(cfg Config) int64 {
	const boxBytes = int64(unsafe.Sizeof(mailbox.Box{})) + 16 // box + slice slot + pointer
	const peBytes = int64(unsafe.Sizeof(PE{})) + 8            // handle + slice slot
	return int64(localP(cfg))*(boxBytes+peBytes) + mailbox.StateBytes(localP(cfg), SchedWorkers(cfg))
}

// Executor is the machine's one seam, both halves on cold paths: who
// drives the steppers of a RunAsync, and where a send goes whose
// destination has no local box. NewMachine installs the production
// implementation (the mailbox scheduler and, on a windowed machine,
// Remote.Forward); NewMachineOn accepts another, which exists for test
// support (internal/simexec). Ranks are local indices, 0 ≤ rank < the
// number of local PEs.
type Executor interface {
	// Run calls exec(rank) for every rank and returns once each has
	// reported done. exec returning false means the body suspended after
	// arming its mailbox; it is called again after Ready(rank).
	Run(exec func(rank int) bool)
	// Ready re-enqueues a suspended rank whose awaited message has
	// arrived, or whose box was interrupted. Called from any goroutine.
	Ready(rank int)
	// Forward takes over a message no local box accepts; it reaches its
	// receiver through Machine.Deliver. Called from any goroutine.
	Forward(dst int, msg mailbox.Msg)
	// Workers is the number of goroutines the executor keeps resident.
	Workers() int
	// Close releases them. Not called during a Run; idempotent.
	Close()
}

// schedExecutor is the production Executor: the sharded scheduler drives
// the steppers, and the only sends without a local box are a windowed
// machine's, which leave through Remote.Forward.
type schedExecutor struct {
	*mailbox.Sched
	remote *Remote
}

func (e schedExecutor) Forward(dst int, msg mailbox.Msg) { e.remote.Forward(dst, msg) }

// Machine is a simulated cluster of PEs. Create one with NewMachine, run
// SPMD programs with Run, and read aggregate statistics with Stats.
type Machine struct {
	cfg   Config
	boxes []*mailbox.Box // one intake per local rank, indexed by rank−lo
	// sendBoxes is indexed by global destination rank; a nil entry (a
	// non-local rank of a windowed machine, every rank under NewMachineOn)
	// sends through ex.Forward.
	sendBoxes []*mailbox.Box
	pes       []*PE
	// lo is the first local rank (0 except on a windowed machine, which
	// owns only the Remote window and indexes pes/boxes by rank−lo).
	lo int

	// Pooled communication-context allocator (NewContext/ReleaseContext):
	// ids are never 0 (the default context) and are recycled so long
	// serving runs keep the per-PE per-context state bounded by the
	// front end's inflight limit rather than by query count.
	ctxMu   sync.Mutex
	ctxFree []Ctx
	ctxNext uint32

	// RunAsync machinery: the executor (in production w workers driving
	// the p steppers; they spawn on the first RunAsync and stay until Close
	// or the finalizer), the per-rank exec wrapper (one method value per
	// machine, so steady-state dispatch allocates nothing), and the start
	// function of the run in progress (nil outside RunAsync).
	ex         Executor
	execAsync  func(rank int) bool
	asyncStart func(pe *PE) Stepper
	closeOnce  sync.Once

	// Aggregate statistics, folded in as each PE's body ends (O(1) Stats
	// instead of an O(p) scan).
	aggMu sync.Mutex
	agg   Stats

	// errMu guards the run's first error and the abort state: abortErr
	// can arrive from outside the run (AbortExternal on the wire reader
	// goroutine) while finishRun re-arms the machine, so aborted changes
	// only under the lock.
	errMu   sync.Mutex
	err     error
	aborted bool
}

// NewMachine creates a machine with cfg.P PEs (on a windowed machine, the
// PEs of cfg.Remote's window). It panics if cfg.P < 1.
func NewMachine(cfg Config) *Machine {
	if r := cfg.Remote; r != nil && (r.Forward == nil || r.Lo < 0 || r.Hi <= r.Lo || r.Hi > cfg.P) {
		panic("comm: Config.Remote requires a valid [Lo, Hi) window and a Forward hook")
	}
	return newMachine(cfg, nil)
}

// NewMachineOn is NewMachine with ex in place of the production executor:
// ex drives every RunAsync, and every Send and Post is handed to
// ex.Forward — no message reaches a box except through Deliver. The
// machine must be whole (cfg.Remote nil). Test support; see
// internal/simexec.
func NewMachineOn(cfg Config, ex Executor) *Machine {
	if cfg.Remote != nil || ex == nil {
		panic("comm: NewMachineOn requires an executor and a whole machine (no Config.Remote)")
	}
	return newMachine(cfg, ex)
}

func newMachine(cfg Config, ex Executor) *Machine {
	if cfg.P < 1 {
		panic(fmt.Sprintf("comm: invalid PE count %d", cfg.P))
	}
	lo := 0
	if cfg.Remote != nil {
		lo = cfg.Remote.Lo
	}
	nLocal := localP(cfg)
	m := &Machine{
		cfg:   cfg,
		lo:    lo,
		boxes: make([]*mailbox.Box, nLocal),
		pes:   make([]*PE, nLocal),
	}
	for i := range m.boxes {
		m.boxes[i] = mailbox.New()
	}
	// Suspended continuation bodies (RunAsync) are resumed through the box
	// notify → executor ready-queue path; all boxes share the one Ready
	// method value and differ only in rank. In production that is the
	// scheduler's own method, bound directly: a resume crosses no interface.
	var ready func(rank int)
	if ex != nil {
		m.sendBoxes = make([]*mailbox.Box, cfg.P) // all nil: every send is ex.Forward's
		ready = ex.Ready
	} else {
		sched := mailbox.NewSched(nLocal, SchedWorkers(cfg))
		ex, ready = schedExecutor{sched, cfg.Remote}, sched.Ready
		m.sendBoxes = m.boxes
		if nLocal != cfg.P {
			m.sendBoxes = make([]*mailbox.Box, cfg.P)
			copy(m.sendBoxes[lo:], m.boxes)
		}
	}
	m.ex = ex
	m.execAsync = m.execAsyncRank
	for i, b := range m.boxes {
		m.pes[i] = &PE{
			m: m, rank: lo + i, p: cfg.P, alpha: cfg.Alpha, beta: cfg.Beta,
			box: b, sendBoxes: m.sendBoxes,
		}
		b.SetNotify(i, ready)
	}
	// An idle scheduler goroutine references only the scheduler, never the
	// machine, so the finalizer fires once callers drop the machine and
	// releases the workers.
	runtime.SetFinalizer(m, (*Machine).shutdown)
	return m
}

// P returns the number of PEs.
func (m *Machine) P() int { return m.cfg.P }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Close releases the machine's resident scheduler goroutines. It is
// optional — an unreachable machine's scheduler is released by a
// finalizer — but deterministic teardown keeps harness measurements
// clean. The machine must not be used after Close.
func (m *Machine) Close() {
	runtime.SetFinalizer(m, nil)
	m.shutdown()
}

func (m *Machine) shutdown() { m.closeOnce.Do(m.ex.Close) }

// Workers returns the scheduler width w: the machine's resident
// goroutine budget.
func (m *Machine) Workers() int { return m.ex.Workers() }

// abortErr records the first error and releases all suspended PEs.
func (m *Machine) abortErr(err error) {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	if m.err == nil {
		m.err = err
	}
	if !m.aborted {
		m.aborted = true
		for _, b := range m.boxes {
			b.Interrupt()
		}
	}
}

// abortedError is the panic value delivered to PEs suspended in a receive
// when another PE has failed; it unwinds the SPMD program cleanly.
type abortedError struct{}

func (abortedError) Error() string { return "comm: aborted because another PE failed" }

// Run executes body on every local PE concurrently (SPMD) and blocks
// until all of them return. If any PE panics, all PEs are unblocked and
// Run returns the first panic as an error. Run may be called repeatedly
// on the same machine; communication state must be drained (which it is
// whenever a run completes without error, since tags are checked).
//
// Run is RunAsync over a coroutine per PE (see coro.go): a body waiting in
// Recv is suspended by the scheduler like a stepper, so the run needs no
// goroutine beyond the w workers, but every body keeps its coroutine
// stack until it returns — O(p) memory mid-run. Programs that must stay
// at O(w) mid-run are written as steppers.
func (m *Machine) Run(body func(pe *PE)) error {
	return m.RunAsync(func(pe *PE) Stepper { return BodyStep(pe, body) })
}

// bodyPanicked handles the recovered panic r of pe's body: drop the PE's
// posted receives and turn the panic into a machine abort. An
// abortedError is a secondary failure — the first cause is already
// recorded.
func (m *Machine) bodyPanicked(pe *PE, r any) {
	pe.resetAsync()
	switch r := r.(type) {
	case abortedError:
	case bodyPanic:
		m.abortErr(fmt.Errorf("comm: PE %d panicked: %v\n%s", pe.rank, r.r, r.stack))
	default:
		m.abortErr(fmt.Errorf("comm: PE %d panicked: %v\n%s", pe.rank, r, debug.Stack()))
	}
}

// finishRun collects a run's first error and, on failure, restores the
// machine to a clean reusable state. The whole reset runs under errMu so an external abort lands either wholly
// before it (and is cleared with the run it failed) or wholly after it
// (and fails the next run).
func (m *Machine) finishRun() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	err := m.err
	m.err = nil
	if err != nil {
		// The machine's queues may hold stale messages after an abort, and
		// unwound PE bodies may have left posted receive handles behind;
		// drain both so a subsequent Run starts clean.
		for _, b := range m.boxes {
			b.Reset()
		}
		for _, pe := range m.pes {
			pe.resetAsync()
		}
		m.aborted = false
	}
	return err
}

// foldStats folds pe's monotone counters into the machine aggregate.
// Deltas (for the totals) use per-PE shadows of the last folded values;
// the maxima need none because per-PE counters only grow between
// ResetStats calls.
func (m *Machine) foldStats(pe *PE) {
	m.aggMu.Lock()
	m.agg.TotalWords += pe.sentWords - pe.foldedSentWords
	m.agg.TotalSends += pe.sends - pe.foldedSends
	pe.foldedSentWords = pe.sentWords
	pe.foldedSends = pe.sends
	m.agg.MaxSentWords = max(m.agg.MaxSentWords, pe.sentWords)
	m.agg.MaxRecvWords = max(m.agg.MaxRecvWords, pe.recvWords)
	m.agg.MaxSends = max(m.agg.MaxSends, pe.sends)
	if pe.clock > m.agg.MaxClock {
		m.agg.MaxClock = pe.clock
	}
	m.aggMu.Unlock()
}

// Ctx is a communication context — the MPI-communicator-style tag that
// isolates concurrent operations sharing one machine. Every message
// carries its sender's current context, and receives match on
// (source, context) before the tag discipline applies, so collectives
// and selection steppers of different queries interleave on one
// scheduler without ever seeing each other's traffic. Context 0 is the
// default every PE starts in; nonzero contexts are leased from the
// machine's pooled allocator (NewContext/ReleaseContext).
type Ctx uint32

// NewContext leases a communication context from the machine's pool.
// Safe from any goroutine. Contexts are recycled by ReleaseContext;
// a context must not be released while any operation tagged with it is
// still in flight on any PE (the serving layer releases only after all
// p per-PE steppers of the context's operation have completed).
func (m *Machine) NewContext() Ctx {
	m.ctxMu.Lock()
	defer m.ctxMu.Unlock()
	if n := len(m.ctxFree); n > 0 {
		c := m.ctxFree[n-1]
		m.ctxFree = m.ctxFree[:n-1]
		return c
	}
	m.ctxNext++
	return Ctx(m.ctxNext)
}

// ReleaseContext returns a leased context to the pool. Safe from any
// goroutine. Reuse is safe because operations run SPMD over all PEs:
// every PE has retired the context's traffic (messages and collective
// tag state) before the next lease can reach it.
func (m *Machine) ReleaseContext(c Ctx) {
	if c == 0 {
		panic("comm: cannot release the default context")
	}
	m.ctxMu.Lock()
	m.ctxFree = append(m.ctxFree, c)
	m.ctxMu.Unlock()
}

// ExternalSrc is the reserved source rank of externally injected
// messages (Machine.Post): one past the last PE, so it can never
// collide with PE traffic.
func (m *Machine) ExternalSrc() int { return m.cfg.P }

// Post injects a message from outside the machine — the serving front
// end's doorbell: an admission goroutine that is not a PE hands work to
// the PEs mid-run. The message arrives at dst under (ExternalSrc, ctx)
// and is received like any other (IRecv(ExternalSrc, tag) with the PE's
// context set to ctx). It carries no sender-side meter (no PE paid a
// send); the receiver's Wait folds the usual α + βm receive cost with a
// zero depart stamp, so consuming a doorbell costs one startup of
// modeled time. Safe from any goroutine; never blocks.
func (m *Machine) Post(dst int, ctx Ctx, tag Tag, data any, words int64) {
	msg := mailbox.Msg{
		Src: m.cfg.P, Ctx: uint32(ctx), Tag: uint64(tag), Words: words, Data: data,
	}
	if b := m.sendBoxes[dst]; b != nil {
		b.Put(msg)
	} else {
		m.ex.Forward(dst, msg)
	}
}

// Deliver injects a transport-delivered message for local rank dst — the
// receive half of Remote.Forward and Executor.Forward: the wire reader
// decodes a frame and hands its envelope here, after which keyed demux,
// IRecv binding and the metered receive rule proceed exactly as for an
// in-process send (the message carries the sender's depart stamp across
// the process boundary). dst must be a local rank. Safe from any
// goroutine.
func (m *Machine) Deliver(dst int, msg mailbox.Msg) {
	if dst < m.lo || dst >= m.lo+len(m.pes) {
		panic(fmt.Sprintf("comm: Deliver to non-local rank %d (local window [%d, %d))", dst, m.lo, m.lo+len(m.pes)))
	}
	m.boxes[dst-m.lo].Put(msg)
}

// AbortExternal records err as the machine's failure and releases every
// suspended local PE, exactly as a local PE panic would — the
// wire transport's hook for propagating a remote process's death into a
// run in progress. The current (or next) Run returns err; finishRun then
// restores the machine to a clean state.
func (m *Machine) AbortExternal(err error) { m.abortErr(err) }

// LocalRanks returns the machine's local rank window [lo, hi): the full
// [0, P) except on a windowed machine, where it is Config.Remote's.
func (m *Machine) LocalRanks() (lo, hi int) { return m.lo, m.lo + len(m.pes) }

// MustRun is Run but panics on error. Intended for examples and benches.
func (m *Machine) MustRun(body func(pe *PE)) {
	if err := m.Run(body); err != nil {
		panic(err)
	}
}

// ResetStats zeroes all per-PE counters and virtual clocks. Call between
// measured phases. Must not be called while a Run is in progress. The
// collective tag sequence is deliberately left untouched — it is protocol
// state, not a statistic.
func (m *Machine) ResetStats() {
	for _, pe := range m.pes {
		pe.sentWords, pe.recvWords, pe.sends, pe.recvs = 0, 0, 0, 0
		pe.foldedSentWords, pe.foldedSends = 0, 0
		pe.clock = 0
		pe.waitNs = 0
	}
	m.aggMu.Lock()
	m.agg = Stats{}
	m.aggMu.Unlock()
}

// Stats aggregates communication counters across PEs after a Run.
type Stats struct {
	// TotalWords is the sum of all words sent.
	TotalWords int64
	// MaxSentWords / MaxRecvWords are the bottleneck communication volumes
	// (the paper's h: max over PEs of words sent resp. received).
	MaxSentWords int64
	MaxRecvWords int64
	// TotalSends is the total number of messages (startups paid somewhere).
	TotalSends int64
	// MaxSends is the bottleneck startup count (max over PEs of messages sent).
	MaxSends int64
	// MaxClock is the modeled α/β critical-path time (max PE virtual clock).
	MaxClock float64
}

// BottleneckWords is the paper's h: the maximum over PEs of words sent or
// received.
func (s Stats) BottleneckWords() int64 {
	return max(s.MaxSentWords, s.MaxRecvWords)
}

// Stats returns aggregate counters. Only meaningful between Runs. It
// reads the aggregate every body folds into as it ends, so it is O(1).
func (m *Machine) Stats() Stats {
	m.aggMu.Lock()
	defer m.aggMu.Unlock()
	return m.agg
}

// PE is one processing element's handle, valid only inside its body — a
// Run coroutine or a RunAsync stepper — which runs on one goroutine at a
// time. No synchronization is needed to update counters.
type PE struct {
	m    *Machine
	rank int
	p    int

	// alpha/beta are copied from the machine config so the Send/Recv hot
	// paths touch only this cache line, not the shared Machine.
	alpha float64
	beta  float64

	// box is this PE's own intake, sendBoxes the machine-wide slice
	// indexed by destination (see Machine.sendBoxes).
	box       *mailbox.Box
	sendBoxes []*mailbox.Box

	clock     float64
	sentWords int64
	recvWords int64
	sends     int64
	recvs     int64
	waitNs    int64

	// foldedSentWords/foldedSends shadow the last values folded into the
	// machine aggregate.
	foldedSentWords int64
	foldedSends     int64

	// ctx is the PE's current communication context: attached to every
	// send and matched by every receive posted while set. The serving
	// mux switches it per query slot (SetCtx); everything else runs in
	// the default context 0. collSeq is context 0's collective tag
	// sequence (the hot path); nonzero contexts draw from collSeqCtx,
	// one independent sequence per context so concurrently interleaved
	// queries each keep the SPMD tag discipline internally.
	ctx        uint32
	collSeq    uint64
	collSeqCtx map[uint32]uint64

	// keyBuf/hBuf are reusable buffers for multi-handle suspension
	// (MultiWaiter bodies): the pending handles of the current body and
	// their (src, ctx) arm keys.
	keyBuf []uint64
	hBuf   []*RecvHandle

	// Non-blocking receive state: the outstanding posted handles (FIFO,
	// doubly linked), the handle freelist (so Recv = IRecv+Wait allocates
	// nothing in steady state), the PE's current body as a stepper, the
	// yield of the blocking body running now (nil while none is), and the
	// live list of its unfinished body coroutines (BodyStep).
	outHead, outTail *RecvHandle
	freeH            *RecvHandle
	step             Stepper
	yield            func(*RecvHandle) bool
	coros            []*coro

	// pools holds the per-PE typed freelists of pooled stepper state
	// (see steppool.go), and with them every reusable per-PE buffer: a
	// buffer lives in the state of the stepper that uses it. Only the
	// goroutine currently running this PE's body touches it. Pools need
	// no context namespacing: concurrent queries pop distinct objects off
	// the same freelist, so two interleaved queries never share a buffer.
	pools map[reflect.Type]any
}

// WaitTime returns how long this PE's blocking body has been suspended
// waiting for messages (a stepper's suspensions are not counted). Harness
// code subtracts it from a phase's wall time to estimate pure local work.
func (pe *PE) WaitTime() time.Duration { return time.Duration(pe.waitNs) }

// Rank returns this PE's rank in 0..P-1.
func (pe *PE) Rank() int { return pe.rank }

// P returns the number of PEs.
func (pe *PE) P() int { return pe.p }

// Alpha returns the modeled startup cost.
func (pe *PE) Alpha() float64 { return pe.m.cfg.Alpha }

// Beta returns the modeled per-word cost.
func (pe *PE) Beta() float64 { return pe.m.cfg.Beta }

// Clock returns this PE's modeled communication-time clock.
func (pe *PE) Clock() float64 { return pe.clock }

// SentWords returns the number of machine words this PE has sent.
func (pe *PE) SentWords() int64 { return pe.sentWords }

// RecvWords returns the number of machine words this PE has received.
func (pe *PE) RecvWords() int64 { return pe.recvWords }

// Sends returns the number of messages this PE has sent.
func (pe *PE) Sends() int64 { return pe.sends }

// SetCtx switches the PE's current communication context: sends attach
// it, receives posted afterwards match on it, and the collective tag
// sequence is scoped to it. The serving mux switches contexts between
// query slots; ordinary SPMD bodies stay in the default context 0. The
// context must be identical across PEs for the same logical operation
// (it replaces nothing of the SPMD discipline — it isolates whole
// operations from each other).
func (pe *PE) SetCtx(c Ctx) { pe.ctx = uint32(c) }

// CurCtx returns the PE's current communication context.
func (pe *PE) CurCtx() Ctx { return Ctx(pe.ctx) }

// ExternalSrc is the reserved source rank of externally injected
// messages (Machine.Post) — one past the last PE.
func (pe *PE) ExternalSrc() int { return pe.p }

// NextCollTag returns the next collective-operation tag. Every PE must call
// it the same number of times in the same order (SPMD discipline, per
// communication context — concurrent contexts hold independent
// sequences); the returned tags then agree across PEs without
// communication.
func (pe *PE) NextCollTag() Tag {
	if pe.ctx == 0 {
		pe.collSeq++
		return Tag(1<<32 | pe.collSeq)
	}
	if pe.collSeqCtx == nil {
		pe.collSeqCtx = make(map[uint32]uint64)
	}
	s := pe.collSeqCtx[pe.ctx] + 1
	pe.collSeqCtx[pe.ctx] = s
	return Tag(1<<32 | s)
}

// Send transmits data (words machine words) to PE dst with the given tag.
// The payload is passed by reference; the sender must not mutate it after
// sending (collectives in package coll copy where required). Send never
// blocks: mailbox intake is unbounded, flow-controlled by the SPMD
// protocol structure.
func (pe *PE) Send(dst int, tag Tag, data any, words int64) {
	if dst < 0 || dst >= pe.p {
		panic(fmt.Sprintf("comm: PE %d: send to invalid rank %d", pe.rank, dst))
	}
	if dst == pe.rank {
		panic(fmt.Sprintf("comm: PE %d: self-send is not modeled; keep data local", pe.rank))
	}
	pe.clock += pe.alpha + pe.beta*float64(words)
	pe.sentWords += words
	pe.sends++
	// The message carries the depart stamp, so the receiver's meter folds
	// identically whether it arrives by a local Put or, forwarded, through
	// Machine.Deliver.
	msg := mailbox.Msg{
		Src: pe.rank, Ctx: pe.ctx, Tag: uint64(tag), Words: words, Depart: pe.clock, Data: data,
	}
	if b := pe.sendBoxes[dst]; b != nil {
		b.Put(msg)
	} else {
		pe.m.ex.Forward(dst, msg)
	}
}

// Recv receives the next message from PE src, which must carry the given
// tag. It returns the payload and its size in words. Recv is sugar for
// IRecv followed by Wait (literally — the handle comes from the per-PE
// pool, so the sugar allocates nothing): posting binds an
// already-delivered message eagerly, Wait suspends the body only when the
// message has not arrived, and the meter — the single-ported α+βm clock rule, a
// coordinator draining p−1 messages therefore paying Θ(p·(α+βm)) of
// modeled time — folds at Wait.
func (pe *PE) Recv(src int, tag Tag) (any, int64) {
	return pe.IRecv(src, tag).Wait()
}

// SendRecv sends to dst and receives from src in one full-duplex step
// (the common exchange pattern of recursive doubling), posting the
// receive before the send so the two transfers overlap — the handle-API
// form of the exchange. Sends never block, so the exchange is
// deadlock-free for any pairing.
func (pe *PE) SendRecv(dst int, sendData any, sendWords int64, src int, tag Tag) (any, int64) {
	h := pe.IRecv(src, tag)
	pe.Send(dst, tag, sendData, sendWords)
	return h.Wait()
}
