// Package serve is the multi-tenant query-serving front end over one
// simulated machine: an admission queue, a batching dispatcher, and a
// per-PE tenant multiplexer that interleaves many concurrent selection
// queries — each under its own leased communication context — on the
// machine's single scheduler.
//
// The paper's algorithms are phrased as one SPMD program at a time; a
// serving deployment instead sees an open stream of independent top-k
// queries against resident shards. Running them back-to-back leaves the
// machine idle during every query's communication stalls and pays every
// query's messages in full. Kth queries share them: every PE's mux runs
// its in-flight Kth queries as the lanes of one selection engine
// (sel.KthSortedLanesStep) in one context leased for the server's
// lifetime, so a level's two tree sweeps serve every lane in it, and a
// query that arrives while the engine runs joins at its next level.
// DeleteMin and TopKFreq queries each lease a comm.Ctx, so their
// collective traffic is invisible to every other query's, and the per-PE
// mux steps whichever tenant's messages have arrived (comm.MultiWaiter
// suspension arms all pending (src, ctx) keys at once). Throughput rises
// with inflight depth while each query's metered words/sends stay
// bit-identical to a sequential run — pinned by the differential tests.
// A Kth query is metered what its selection sends alone, so at depth the
// machine sends fewer messages than the Kth tickets sum to.
//
// The key set is immutable for a server's lifetime, so NewServer builds
// a resident index once — a sorted copy of every shard and a rank table
// over the copies (see NewServer for the costs) — and the two query
// kinds that select by key order are answered from it. The rank table
// cuts the key set into windows of r = sel.OneSweepWindow(p) keys at
// exact global ranks. Kth finds its window by arithmetic, with no
// messages, and runs the sorted-input form of Algorithm 1 (a lane of the
// mux's engine) on it, a sub-slice of the resident shard never copied or
// written: the first up-sweep carries the whole window, so the root
// answers after one up-sweep and one down-sweep (the first rank of a
// window is a min-reduction). DeleteMin pops from the unpopped suffix of
// every sorted shard, the server's priority queue (a served queue never
// inserts): one size sum, the same selection on the first min(k, len)
// keys of every suffix (Appendix A), and a per-PE cursor moves past the
// batch; it does not use the table. Popped keys stay in the index, so
// Kth still sees them. TopKFreq counts occurrences, not order, and
// keeps reading the caller's shards: it runs the blocking freq.PAC as a
// coroutine body nested in the mux (comm.BodyStep).
//
// Lifecycle: NewServer leases the Kth engines' context and starts the
// machine body (RunAsync) and the dispatcher. Kth, DeleteMin and TopKFreq (and their Deadline forms) are
// non-blocking admission: a full queue returns ErrOverloaded — the caller
// sheds load instead of queueing unboundedly. Close drains, posts a
// poison doorbell, and waits for the muxes to retire. The machine itself
// stays owned by the caller (Close does not close it), so one machine can
// outlive many server generations.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/dht"
	"commtopk/internal/sel"
)

var (
	// ErrOverloaded is returned by Submit when the admission queue is
	// full — open-loop callers drop or retry with backoff.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrCanceled is returned by Ticket.Wait for queries canceled while
	// still queued.
	ErrCanceled = errors.New("serve: query canceled")
	// ErrDeadlineExpired is returned — by KthDeadline/DeleteMinDeadline at
	// submission, or by Ticket.Wait for queries that aged out while queued
	// — when a query's admission deadline passes before the query occupies
	// a context lease. Distinct from ErrOverloaded: the queue had room,
	// but the answer would have arrived too late to matter.
	ErrDeadlineExpired = errors.New("serve: admission deadline expired")
)

// doorbellTag marks doorbell messages. The (ExternalSrc, ctx 0) stream
// carries nothing else, so any fixed tag below the collective tag space
// (1<<32 | seq) works.
const doorbellTag = comm.Tag(0x0d00)

// Config tunes the admission front end. Zero values select defaults.
type Config struct {
	// QueueDepth bounds the submission queue (default 256). Admission
	// beyond it fails fast with ErrOverloaded.
	QueueDepth int
	// MaxInflight bounds concurrently executing queries (default 4): the
	// Kth lanes of the muxes' selection engines plus the DeleteMin and
	// TopKFreq queries, each of which leases a communication context.
	// MaxInflight == 1 is the sequential baseline the benchmark and the
	// differential test compare against.
	MaxInflight int
	// BatchMax bounds how many queued queries one doorbell dispatches
	// (default 8), paying one doorbell startup per PE for the whole
	// batch. Kth queries do not need a batch to share their sweeps: one
	// that arrives while others run joins their selection at its next
	// level.
	BatchMax int
	// Seed derives per-query RNG streams (query i uses Seed+i on every
	// PE via xrand.NewPE), making every query's pivot walk — and with it
	// its meter — reproducible independent of interleaving.
	Seed int64
}

// freqEps and freqDelta are the (ε, δ) guarantee every TopKFreq query
// runs under. They are fixed, not per-query: the sampling rate they
// imply is a property of the resident data set.
const (
	freqEps   = 0.02
	freqDelta = 0.01
)

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	return c
}

// Query kinds. Kth selections and TopKFreq heavy-hitter queries only
// read resident data and may interleave freely; DeleteMin queries move
// the resident queue's cursor and are serialized per mux in dispatch
// order (see mux.pqQ).
const (
	kindKth = iota
	kindPQ
	kindFreq
)

// query is the shared per-query record all p muxes work on.
type query[K cmp.Ordered] struct {
	kind     int
	k        int64
	id       int // submission index, unique per server
	seed     int64
	deadline time.Time // zero: no admission deadline
	ctx      comm.Ctx  // DeleteMin and TopKFreq: the query's own context
	t        *Ticket[K]
	// peLeft counts PEs still running this query; the PE that takes it
	// to zero releases the context lease and the MaxInflight token and
	// completes the ticket.
	peLeft     atomic.Int32
	dispatched atomic.Bool
	words      atomic.Int64 // sent words, summed over PEs
	sends      atomic.Int64 // messages, summed over PEs
}

// Ticket is a submitted query's handle.
type Ticket[K cmp.Ordered] struct {
	srv      *Server[K]
	q        *query[K]
	res      K
	n        int64
	items    []dht.KV
	err      error
	done     chan struct{}
	canceled atomic.Bool
}

// Wait blocks until the query completes (or the machine dies) and
// returns the query's scalar result: the element of global rank k for
// Kth, the agreed selection threshold for DeleteMin (zero K when the
// queue drained or was empty).
func (t *Ticket[K]) Wait() (K, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-t.srv.runDone:
		// The machine body exited (abort or Close racing an in-flight
		// query); prefer a completed result if both races resolved.
		select {
		case <-t.done:
			return t.res, t.err
		default:
			var zero K
			if err := t.srv.runErr; err != nil {
				return zero, err
			}
			return zero, ErrClosed
		}
	}
}

// Cancel marks the query canceled. It reports true if the cancellation
// can still take effect — i.e. the query had not been dispatched to the
// PEs yet. A dispatched query runs to completion (its collectives are
// SPMD across all p PEs; there is no mid-collective abort that does not
// kill the machine) and Cancel returns false.
func (t *Ticket[K]) Cancel() bool {
	t.canceled.Store(true)
	return !t.q.dispatched.Load()
}

// BatchLen returns the realized global batch size of a DeleteMin query
// (min(k, queue size) — every PE agreed on it). Zero for Kth queries.
// Valid after Wait returns nil error.
func (t *Ticket[K]) BatchLen() int64 { return t.n }

// Items returns a TopKFreq query's heavy hitters, most frequent first
// (counts are 1/ρ-scaled estimates under the server's (ε, δ) config;
// identical on all PEs). Nil for Kth/DeleteMin queries. Valid after
// Wait returns nil error.
func (t *Ticket[K]) Items() []dht.KV { return t.items }

// Meters returns the query's attributed communication: words sent and
// messages sent, summed over all PEs. A DeleteMin or TopKFreq query is
// metered exactly the traffic its stepper performed. A Kth query is
// metered what its selection sends alone (sel.KthSortedLanesStep), the
// traffic of a sequential run, whichever queries shared its levels; the
// messages that sharing saves show only in the machine's counters.
// Valid after Wait returns nil error. The virtual clock is deliberately
// not attributed — under interleaving a PE's clock folds waits of
// whichever query resumed it, so per-query clock is not well defined;
// words and startups are, and they are what the differential tests pin
// against sequential execution.
func (t *Ticket[K]) Meters() (words, sends int64) {
	return t.q.words.Load(), t.q.sends.Load()
}

// Server owns the serving state over one machine. Create with NewServer.
type Server[K cmp.Ordered] struct {
	m *comm.Machine
	// sorted is the resident index: sorted[i] is an ascending copy of PE
	// i's shard, built once by NewServer and never written afterwards.
	sorted [][]K
	// tables[i] is PE i's share of the rank table over the sorted shards,
	// built once by NewServer (see buildRankTable).
	tables []rankTable
	n      int64 // total elements across shards
	cfg    Config
	// kthCtx is the context every mux's Kth engine runs its collectives
	// in, leased by NewServer and released when the muxes retire.
	kthCtx comm.Ctx
	// freqShards is the uint64 view of the caller's shards (non-nil iff K
	// is uint64); the heavy-hitter query kind counts object identifiers,
	// so it is only available on servers whose resident keys are
	// identifiers.
	freqShards [][]uint64

	mu      sync.RWMutex // guards subQ against Submit/Close races
	subQ    chan *query[K]
	sem     chan struct{} // MaxInflight lease tokens
	closed  atomic.Bool
	nextID  atomic.Int64
	batch   []*query[K] // dispatcher's reusable coalescing buffer
	runErr  error
	runDone chan struct{}
	dspDone chan struct{}
}

// NewServer starts serving queries against shards (shards[i] is PE i's
// resident data) on m. The shards are never written — not by NewServer,
// not by any query — and the caller must not write them either until
// Close returns (TopKFreq reads them in place); no shard may hold more
// than math.MaxInt32 keys. Kth and DeleteMin are served from a sorted
// copy NewServer makes of each shard, which no query writes either, and
// Kth also from a rank table over the copies. The sort costs
// O(n/p · log n/p) per shard, spread over min(GOMAXPROCS, p) goroutines
// that have exited when NewServer returns; the table costs one blocking
// run on m (buildRankTable), about a fifth of the sort at p = 16,
// n/p = 2^16, and none when the key set is one window. The server holds
// n more words than the caller's shards plus, on every PE, 4 bytes for
// every r keys of the key set. A one-shot Kth scans its shard about three
// times and the sort costs about sixteen scans, so the index has paid for
// itself after roughly ten Kth queries. The machine must be idle; it
// stays busy until Close and remains owned by the caller afterwards.
func NewServer[K cmp.Ordered](m *comm.Machine, shards [][]K, cfg Config) (*Server[K], error) {
	if len(shards) != m.P() {
		return nil, fmt.Errorf("serve: %d shards for %d PEs", len(shards), m.P())
	}
	s := &Server[K]{
		m:       m,
		sorted:  sortedCopies(shards),
		cfg:     cfg.withDefaults(),
		runDone: make(chan struct{}),
		dspDone: make(chan struct{}),
	}
	for _, sh := range shards {
		if len(sh) > math.MaxInt32 {
			return nil, fmt.Errorf("serve: shard of %d keys exceeds %d", len(sh), math.MaxInt32)
		}
		s.n += int64(len(sh))
	}
	s.tables = make([]rankTable, m.P())
	r := int64(sel.OneSweepWindow(m.P()))
	if s.n <= r { // the key set is one window
		for i, sh := range shards {
			s.tables[i] = rankTable{r: r, n: s.n, cut: []int32{0, int32(len(sh))}}
		}
	} else if err := m.Run(func(pe *comm.PE) {
		s.tables[pe.Rank()] = buildRankTable(pe, s.sorted[pe.Rank()], r, s.n)
	}); err != nil {
		return nil, err
	}
	if fs, ok := any(shards).([][]uint64); ok {
		s.freqShards = fs
	}
	s.subQ = make(chan *query[K], s.cfg.QueueDepth)
	s.sem = make(chan struct{}, s.cfg.MaxInflight)
	s.kthCtx = m.NewContext()
	go func() {
		s.runErr = m.RunAsync(func(pe *comm.PE) comm.Stepper { return newMux(s, pe) })
		m.ReleaseContext(s.kthCtx)
		close(s.runDone)
	}()
	go s.dispatch()
	return s, nil
}

// sortedCopies returns an ascending copy of every shard, sorting
// min(GOMAXPROCS, len(shards)) of them at a time.
func sortedCopies[K cmp.Ordered](shards [][]K) [][]K {
	sorted := make([][]K, len(shards))
	workers := min(runtime.GOMAXPROCS(0), len(shards))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(shards); i += workers {
				sorted[i] = slices.Clone(shards[i])
				slices.Sort(sorted[i])
			}
		}()
	}
	wg.Wait()
	return sorted
}

// Kth submits a query for the element of global rank k (1-based) among
// the union of all shards. Non-blocking: a full admission queue returns
// ErrOverloaded immediately.
func (s *Server[K]) Kth(k int64) (*Ticket[K], error) {
	if k < 1 || k > s.n {
		return nil, fmt.Errorf("serve: rank %d out of range [1, %d]", k, s.n)
	}
	return s.submit(kindKth, k, time.Time{})
}

// KthDeadline is Kth with an admission deadline: a query that has not
// occupied a context lease by then — already late at submission, or aged
// out while queued behind the MaxInflight window — is shed with
// ErrDeadlineExpired (at submission when possible, else via Wait) instead
// of wasting a lease on an answer nobody is waiting for. A query
// dispatched before the deadline runs to completion regardless of how
// long that takes; the deadline bounds queueing, not execution.
func (s *Server[K]) KthDeadline(k int64, deadline time.Time) (*Ticket[K], error) {
	if k < 1 || k > s.n {
		return nil, fmt.Errorf("serve: rank %d out of range [1, %d]", k, s.n)
	}
	return s.submit(kindKth, k, deadline)
}

// DeleteMin submits a bulk delete-min of global batch size min(k, queue
// size) against the server's resident priority queue — the second query
// kind. The queue is the unpopped suffix of every PE's sorted shard (shard
// keys must be globally unique for this query kind), and a DeleteMin pops
// the k smallest keys of their union by moving a per-PE cursor. The
// cursors are shared state, so the muxes run DeleteMin queries serialized
// in dispatch order, while Kth queries — which answer from the whole key
// set, popped keys included — interleave freely around them. The ticket
// surfaces the agreed threshold via Wait (zero K when the batch took
// everything left or the queue was empty) and the realized batch size
// via BatchLen. Non-blocking admission, like Kth.
func (s *Server[K]) DeleteMin(k int64) (*Ticket[K], error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: batch size %d must be at least 1", k)
	}
	return s.submit(kindPQ, k, time.Time{})
}

// DeleteMinDeadline is DeleteMin with an admission deadline — the same
// shedding contract as KthDeadline.
func (s *Server[K]) DeleteMinDeadline(k int64, deadline time.Time) (*Ticket[K], error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: batch size %d must be at least 1", k)
	}
	return s.submit(kindPQ, k, deadline)
}

// TopKFreq submits a heavy-hitter query: the k most frequent keys among
// the union of all shards, computed by the Section 7.1 PAC pipeline
// with ε = 0.02 and δ = 0.01 (freqEps, freqDelta) — the third query
// kind. Like Kth it only reads resident data (the caller's shards, in
// place), so it interleaves freely with every other query under its own
// context lease, metered exactly at any depth; the per-query RNG seed
// pins its sampling and pivot walks independent of interleaving. Results arrive via
// Ticket.Items (identical on all PEs). Only available when K is uint64
// (the shard elements are the counted identifiers). Non-blocking
// admission, like Kth.
func (s *Server[K]) TopKFreq(k int) (*Ticket[K], error) {
	return s.TopKFreqDeadline(k, time.Time{})
}

// TopKFreqDeadline is TopKFreq with an admission deadline — the same
// shedding contract as KthDeadline.
func (s *Server[K]) TopKFreqDeadline(k int, deadline time.Time) (*Ticket[K], error) {
	if s.freqShards == nil {
		return nil, errors.New("serve: TopKFreq requires uint64 shards")
	}
	if k < 1 {
		return nil, fmt.Errorf("serve: top-k %d must be at least 1", k)
	}
	return s.submit(kindFreq, int64(k), deadline)
}

// submit builds the ticket and runs non-blocking admission.
func (s *Server[K]) submit(kind int, k int64, deadline time.Time) (*Ticket[K], error) {
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return nil, ErrDeadlineExpired
	}
	t := &Ticket[K]{done: make(chan struct{}), srv: s}
	id := s.nextID.Add(1)
	t.q = &query[K]{kind: kind, k: k, id: int(id), seed: s.cfg.Seed + id, deadline: deadline, t: t}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case s.subQ <- t.q:
		return t, nil
	default:
		return nil, ErrOverloaded
	}
}

// Close stops admission, drains dispatched queries, retires the per-PE
// muxes via a poison doorbell (their retirement releases the Kth
// context), and returns the machine body's error (nil on a clean drain).
// Idempotent. The machine is NOT closed — it belongs to the caller.
func (s *Server[K]) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.mu.Lock()
		close(s.subQ)
		s.mu.Unlock()
	}
	<-s.dspDone
	<-s.runDone
	return s.runErr
}

// dispatch is the admission loop: dequeue, coalesce up to BatchMax
// queries, take a MaxInflight token per query (blocking on the semaphore
// — backpressure lands in the bounded subQ, which is what Submit's
// ErrOverloaded reports against) and a context per DeleteMin and
// TopKFreq query, and ring every PE's doorbell once per batch.
func (s *Server[K]) dispatch() {
	defer close(s.dspDone)
	p := s.m.P()
	for q := range s.subQ {
		s.batch = s.batch[:0]
		s.admit(q)
	coalesce:
		for len(s.batch) < s.cfg.BatchMax {
			select {
			case q2, ok := <-s.subQ:
				if !ok {
					break coalesce
				}
				s.admit(q2)
			default:
				break coalesce
			}
		}
		if len(s.batch) == 0 {
			continue
		}
		// Ring in sub-batches bounded by available inflight leases: a
		// doorbell must carry only leased queries, and leases must never
		// block behind queries this loop has not yet posted (a batch
		// larger than MaxInflight would otherwise deadlock on its own
		// tokens).
		pending := s.batch
		for len(pending) > 0 {
			if s.shedExpired(pending[0]) {
				pending = pending[1:]
				continue
			}
			s.sem <- struct{}{}
			k := 1
			for k < len(pending) {
				select {
				case s.sem <- struct{}{}:
					k++
					continue
				default:
				}
				break
			}
			grant := pending[:k]
			pending = pending[k:]
			// The blocking lease acquisition above is where a queued query
			// spends its life under load — re-check deadlines on the way
			// out, returning the token of anything that aged out rather
			// than burning a lease on it.
			live := grant[:0]
			for _, q := range grant {
				if s.shedExpired(q) {
					<-s.sem
					continue
				}
				live = append(live, q)
			}
			if len(live) == 0 {
				continue
			}
			for _, q := range live {
				if q.kind != kindKth {
					q.ctx = s.m.NewContext()
				}
				q.peLeft.Store(int32(p))
				q.dispatched.Store(true)
			}
			o := &op[K]{queries: append([]*query[K](nil), live...)}
			for dst := 0; dst < p; dst++ {
				s.m.Post(dst, 0, doorbellTag, o, 1)
			}
		}
	}
	// Admission closed and every batch dispatched: poison the muxes.
	// In-flight queries finish first — the mux only retires once its
	// slots drain.
	for dst := 0; dst < p; dst++ {
		s.m.Post(dst, 0, doorbellTag, (*op[K])(nil), 1)
	}
}

// admit moves a dequeued query into the current batch, resolving queued
// cancellations and expired deadlines.
func (s *Server[K]) admit(q *query[K]) {
	if q.t.canceled.Load() {
		q.t.err = ErrCanceled
		close(q.t.done)
		return
	}
	if s.shedExpired(q) {
		return
	}
	s.batch = append(s.batch, q)
}

// shedExpired completes an aged-out query with ErrDeadlineExpired. Only
// the dispatcher calls it, and only before the query is dispatched, so
// the ticket's done channel cannot be closed twice.
func (s *Server[K]) shedExpired(q *query[K]) bool {
	if q.deadline.IsZero() || time.Now().Before(q.deadline) {
		return false
	}
	q.t.err = ErrDeadlineExpired
	close(q.t.done)
	return true
}

// finishQuery runs on whichever PE decrements peLeft to zero: all p
// steppers (or engine lanes) have retired, so no traffic under the
// query's context remains and the lease can recycle.
func (s *Server[K]) finishQuery(q *query[K]) {
	if q.kind != kindKth {
		s.m.ReleaseContext(q.ctx)
	}
	<-s.sem
	close(q.t.done)
}
