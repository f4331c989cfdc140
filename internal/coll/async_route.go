package coll

import (
	"fmt"

	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
)

// Continuation forms of the hypercube router (RouteCombine /
// AllToAllCombine, plus the chunk-framed variants) and the streaming
// chunked all-gather. As in async_vec.go, the engines here are THE
// implementation — the blocking forms in hypercube.go/chunked.go drive
// the same steppers through comm.RunSteps — and the *Step forms deliver
// borrowed results.
//
// The route engine ships every batch as a pooled copy with ownership
// transfer (the receiver recycles it after folding it in), where the old
// blocking direct router sent slices by reference. The meter is
// unchanged — the same sends with the same word counts — and the framing
// makes the engine's internal ping-pong buffers safe to reuse across
// rounds: nothing a partner may still be reading is ever overwritten.

// routeStep phases.
const (
	rtphInit       = iota
	rtphHighMain   // high rank: awaiting its final batch (or its count)
	rtphHighChunks // high rank: draining the final batch's chunk frames
	rtphExtraMain  // low partner: awaiting the folded-in batch (or count)
	rtphExtraChunks
	rtphBit // partition + post + ship for the current hypercube dimension
	rtphBitMain
	rtphBitChunks
	rtphUnfold
	rtphDone
)

// routeStep is the hypercube routing engine as a continuation: fold-in
// of non-power-of-two stragglers, the dimension sweeps with optional
// per-step combine, and the unfold — RouteCombine's schedule, with
// chunk > 0 selecting the chunk-framed shipments of routeCombineChunked
// (a one-word count then ⌈n/chunk⌉ bounded messages per exchange). The
// engine does not self-release: consumers harvest hold, then call
// release. hold's backing is engine-owned (the ping-pong buffers); the
// blocking wrappers copy it out, the *Step forms lend it to out.
type routeStep[T any] struct {
	dest  func(T) int
	cmb   func([]T) []T
	chunk int
	pool  *commbuf.Pool[T]
	tag   comm.Tag
	rank  int
	r     int
	dims  int
	extra int
	bit   int
	peer  int
	hold  []T
	// bufA/bufB are the alternating partition targets (hold aliases at
	// most one of them, never the one being written), shipBuf the staging
	// area for outgoing batches (always copied into pooled messages
	// before sending, so reuse is safe). All three keep their capacity
	// across pooling.
	bufA, bufB []T
	shipBuf    []T
	useA       bool
	need       int // chunk frames: items still to receive this exchange
	h          *comm.RecvHandle
	phase      int
}

// newRouteStep builds the engine; chunk 0 selects direct (unframed)
// exchanges, chunk ≥ 1 the count + chunk framing (validated by the
// chunked entry points).
func newRouteStep[T any](pe *comm.PE, items []T, chunk int, dest func(T) int, cmb func([]T) []T) *routeStep[T] {
	s := comm.GetPooled[routeStep[T]](pe)
	bufA, bufB, ship := s.bufA[:0], s.bufB[:0], s.shipBuf[:0]
	*s = routeStep[T]{dest: dest, cmb: cmb, chunk: chunk, hold: items, bufA: bufA, bufB: bufB, shipBuf: ship}
	return s
}

func (s *routeStep[T]) release(pe *comm.PE) {
	bufA, bufB, ship := s.bufA[:0], s.bufB[:0], s.shipBuf[:0]
	*s = routeStep[T]{bufA: bufA, bufB: bufB, shipBuf: ship}
	comm.PutPooled(pe, s)
}

// flipKeep returns the reset partition target hold does not alias.
func (s *routeStep[T]) flipKeep() []T {
	s.useA = !s.useA
	if s.useA {
		return s.bufA[:0]
	}
	return s.bufB[:0]
}

// storeKeep records the (possibly grown) partition buffer back.
func (s *routeStep[T]) storeKeep(b []T) {
	if s.useA {
		s.bufA = b
	} else {
		s.bufB = b
	}
}

// ship sends items to dst: one pooled-copy message (direct), or the
// count + chunk framing of sendChunked.
func (s *routeStep[T]) ship(pe *comm.PE, dst int, items []T) {
	if s.chunk > 0 {
		sendChunked(pe, dst, s.tag, s.chunk, items)
		return
	}
	sendCopy(pe, s.pool, dst, s.tag, items)
}

// combineHold applies the optional per-step combine hook.
func (s *routeStep[T]) combineHold() {
	if s.cmb != nil {
		s.hold = s.cmb(s.hold)
	}
}

// takeMain consumes the exchange's first message. Direct mode: the whole
// batch — append it onto dst and report done. Chunked mode: the count
// word — record how many items follow and report not-done.
func (s *routeStep[T]) takeMain(dst []T) ([]T, bool) {
	rxAny, _ := s.h.Wait()
	s.h = nil
	if s.chunk > 0 {
		hp := rxAny.(*[]int64)
		s.need = int((*hp)[0])
		commbuf.For[int64]().Put(hp)
		return dst, s.need == 0
	}
	rx := rxAny.(*[]T)
	dst = append(dst, *rx...)
	s.pool.Put(rx)
	return dst, true
}

// takeChunk consumes one chunk frame, appending onto dst.
func (s *routeStep[T]) takeChunk(dst []T) []T {
	rxAny, _ := s.h.Wait()
	s.h = nil
	rx := rxAny.(*[]T)
	dst = append(dst, *rx...)
	s.need -= len(*rx)
	s.pool.Put(rx)
	return dst
}

func (s *routeStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case rtphInit:
			for _, it := range s.hold {
				if d := s.dest(it); d < 0 || d >= p {
					panic(fmt.Sprintf("coll: RouteCombine item with invalid dest %d", d))
				}
			}
			if p == 1 {
				s.combineHold()
				s.phase = rtphDone
				return nil
			}
			s.pool = commbuf.For[T]()
			s.tag = pe.NextCollTag()
			s.rank = pe.Rank()
			s.r = 1
			s.dims = 0
			for s.r*2 <= p {
				s.r *= 2
				s.dims++
			}
			s.extra = p - s.r
			if s.rank >= s.r {
				// Fold-in: hand everything to the low partner, then await the
				// final batch (receive posted before the send so the hand-over
				// and the eventual return overlap).
				s.peer = s.rank - s.r
				s.h = pe.IRecv(s.peer, s.tag)
				s.ship(pe, s.peer, s.hold)
				s.hold = s.flipKeep()
				s.phase = rtphHighMain
				if !s.h.Test() {
					return s.h
				}
				continue
			}
			if s.rank < s.extra {
				s.peer = s.rank + s.r
				s.h = pe.IRecv(s.peer, s.tag)
				s.phase = rtphExtraMain
				if !s.h.Test() {
					return s.h
				}
				continue
			}
			s.bit = 0
			s.phase = rtphBit
		case rtphHighMain:
			var done bool
			s.hold, done = s.takeMain(s.hold)
			if done {
				s.storeKeep(s.hold)
				s.combineHold()
				s.phase = rtphDone
				return nil
			}
			s.phase = rtphHighChunks
		case rtphHighChunks:
			for s.need > 0 {
				if s.h == nil {
					s.h = pe.IRecv(s.peer, s.tag)
					if !s.h.Test() {
						return s.h
					}
				}
				s.hold = s.takeChunk(s.hold)
			}
			s.storeKeep(s.hold)
			s.combineHold()
			s.phase = rtphDone
			return nil
		case rtphExtraMain:
			var done bool
			s.hold, done = s.takeMain(s.hold)
			if done {
				s.combineHold()
				s.bit = 0
				s.phase = rtphBit
				continue
			}
			s.phase = rtphExtraChunks
		case rtphExtraChunks:
			// hold still aliases the caller's items here (the fold-in
			// appends onto it, like the blocking form did) — it must NOT be
			// stored as a keep buffer, or a later partition round would
			// write into the caller's slice.
			for s.need > 0 {
				if s.h == nil {
					s.h = pe.IRecv(s.peer, s.tag)
					if !s.h.Test() {
						return s.h
					}
				}
				s.hold = s.takeChunk(s.hold)
			}
			s.combineHold()
			s.bit = 0
			s.phase = rtphBit
		case rtphBit:
			if s.bit >= s.dims {
				s.phase = rtphUnfold
				continue
			}
			maskBit := 1 << s.bit
			s.peer = s.rank ^ maskBit
			keep := s.flipKeep()
			shipB := s.shipBuf[:0]
			for _, it := range s.hold {
				carrier := s.dest(it)
				if carrier >= s.r {
					carrier -= s.r
				}
				if carrier&maskBit != s.rank&maskBit {
					shipB = append(shipB, it)
				} else {
					keep = append(keep, it)
				}
			}
			s.shipBuf = shipB
			s.hold = keep
			s.h = pe.IRecv(s.peer, s.tag)
			s.ship(pe, s.peer, shipB)
			s.phase = rtphBitMain
			if !s.h.Test() {
				return s.h
			}
		case rtphBitMain:
			var done bool
			s.hold, done = s.takeMain(s.hold)
			if done {
				s.storeKeep(s.hold)
				s.combineHold()
				s.bit++
				s.phase = rtphBit
				continue
			}
			s.phase = rtphBitChunks
		case rtphBitChunks:
			for s.need > 0 {
				if s.h == nil {
					s.h = pe.IRecv(s.peer, s.tag)
					if !s.h.Test() {
						return s.h
					}
				}
				s.hold = s.takeChunk(s.hold)
			}
			s.storeKeep(s.hold)
			s.combineHold()
			s.bit++
			s.phase = rtphBit
		case rtphUnfold:
			if s.rank < s.extra {
				// Everything for rank+r goes back out.
				mine := s.flipKeep()
				theirs := s.shipBuf[:0]
				for _, it := range s.hold {
					if s.dest(it) == s.rank+s.r {
						theirs = append(theirs, it)
					} else {
						mine = append(mine, it)
					}
				}
				s.shipBuf = theirs
				s.ship(pe, s.rank+s.r, theirs)
				s.hold = mine
				s.storeKeep(mine)
			}
			s.combineHold()
			s.phase = rtphDone
			return nil
		default:
			return nil
		}
	}
}

// routeResult clones the engine's held batch into a caller-owned slice
// (nil stays nil for an empty result, matching the old appends-from-nil
// behavior of the blocking router).
func (s *routeStep[T]) routeResult() []T {
	return append([]T(nil), s.hold...)
}

// routeOutStep — the self-releasing wrapper behind the public route
// steppers.
type routeOutStep[T any] struct {
	items []T
	chunk int
	dest  func(T) int
	cmb   func([]T) []T
	out   func([]T)
	eng   *routeStep[T]
}

func newRouteOutStep[T any](pe *comm.PE, items []T, chunk int, dest func(T) int, cmb func([]T) []T, out func([]T)) comm.Stepper {
	s := comm.GetPooled[routeOutStep[T]](pe)
	*s = routeOutStep[T]{items: items, chunk: chunk, dest: dest, cmb: cmb, out: out}
	return s
}

func (s *routeOutStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	if s.eng == nil {
		s.eng = newRouteStep(pe, s.items, s.chunk, s.dest, s.cmb)
	}
	if h := s.eng.Step(pe); h != nil {
		return h
	}
	out := s.out
	eng := s.eng
	*s = routeOutStep[T]{}
	comm.PutPooled(pe, s)
	if out != nil {
		out(eng.hold)
	}
	eng.release(pe)
	return nil
}

// RouteCombineStep is the continuation form of RouteCombine: out
// receives this PE's routed batch as a borrowed view valid only during
// the call (the blocking form's result is caller-owned). dest and
// combine follow RouteCombine's contract. Steady-state allocation-free
// (modulo the caller's own combine hook).
func RouteCombineStep[T any](pe *comm.PE, items []T, dest func(T) int, combine func([]T) []T, out func([]T)) comm.Stepper {
	return newRouteOutStep(pe, items, 0, dest, combine, out)
}

// AllToAllCombineStep is the continuation form of AllToAllCombine.
func AllToAllCombineStep[T any](pe *comm.PE, items []Routed[T], combine func([]Routed[T]) []Routed[T], out func([]Routed[T])) comm.Stepper {
	return newRouteOutStep(pe, items, 0, routedDest[T], combine, out)
}

// RouteCombineChunkedStep is the continuation form of the chunk-framed
// router underneath AllToAllCombineChunked.
func RouteCombineChunkedStep[T any](pe *comm.PE, items []T, chunk int, dest func(T) int, combine func([]T) []T, out func([]T)) comm.Stepper {
	if chunk < 1 {
		panic(fmt.Sprintf("coll: chunk %d < 1", chunk))
	}
	return newRouteOutStep(pe, items, chunk, dest, combine, out)
}

// AllToAllCombineChunkedStep is the continuation form of
// AllToAllCombineChunked.
func AllToAllCombineChunkedStep[T any](pe *comm.PE, items []Routed[T], chunk int, combine func([]Routed[T]) []Routed[T], out func([]Routed[T])) comm.Stepper {
	if chunk < 1 {
		panic(fmt.Sprintf("coll: chunk %d < 1", chunk))
	}
	return newRouteOutStep(pe, items, chunk, routedDest[T], combine, out)
}

// routedDest is AllToAllCombine's dest function (package-level so the
// stepper factories do not allocate a closure per op).
func routedDest[T any](it Routed[T]) int { return it.Dest }

// ---------------------------------------------------------------------------
// Chunked all-gather
// ---------------------------------------------------------------------------

// agChunkedStep phases.
const (
	acphInit = iota
	acphBruck
	acphBruckWait
	acphRing
	acphRingWait
	acphDone
)

// agChunkedStep is AllGatherChunked as a continuation (and its
// implementation — the blocking form drives this stepper): the
// intra-group Bruck all-gather followed by the inter-group ring, visit
// semantics unchanged.
type agChunkedStep[T any] struct {
	data     []T
	chunk    int
	visit    func(src int, block []T)
	ipool    *commbuf.Pool[int64]
	dpool    *commbuf.Pool[T]
	wpool    *commbuf.Pool[bruckMsg[T]]
	tag      comm.Tag
	c, gb    int
	li, g    int
	d        int
	ri       int
	dst, src int
	lensPtr  *[]int64
	lens     []int64
	arenaPtr *[]T
	arena    []T
	cur      *[]bruckMsg[T]
	h        *comm.RecvHandle
	phase    int
}

// AllGatherChunkedStep is the continuation form of AllGatherChunked:
// visit is called exactly once per rank with a view valid only during
// the call, per-PE memory O(m + chunk·m̄). Steady-state allocation-free
// (modulo the caller's visit hook).
func AllGatherChunkedStep[T any](pe *comm.PE, data []T, chunk int, visit func(src int, block []T)) comm.Stepper {
	s := comm.GetPooled[agChunkedStep[T]](pe)
	*s = agChunkedStep[T]{data: data, chunk: chunk, visit: visit}
	return s
}

func (s *agChunkedStep[T]) finish(pe *comm.PE) *comm.RecvHandle {
	*s = agChunkedStep[T]{}
	comm.PutPooled(pe, s)
	return nil
}

func (s *agChunkedStep[T]) Step(pe *comm.PE) *comm.RecvHandle {
	p := pe.P()
	for {
		switch s.phase {
		case acphInit:
			if p == 1 {
				visit := s.visit
				data := s.data
				*s = agChunkedStep[T]{}
				comm.PutPooled(pe, s)
				visit(0, data)
				return nil
			}
			rank := pe.Rank()
			s.c = groupSize(p, s.chunk)
			s.gb = rank - rank%s.c
			s.li = rank - s.gb
			s.ipool = commbuf.For[int64]()
			s.dpool = commbuf.For[T]()
			s.wpool = commbuf.For[bruckMsg[T]]()

			// Phase 1 — intra-group Bruck all-gather with pooled-copy
			// payloads (these batches get forwarded in phase 2, so
			// ownership must travel). Afterwards lens/arena hold the
			// group's blocks in shifted order li, li+1, … mod c.
			s.tag = pe.NextCollTag()
			s.lensPtr = s.ipool.GetCap(s.c)
			s.lens = append(*s.lensPtr, int64(len(s.data)))
			s.arenaPtr = s.dpool.GetCap(2*len(s.data) + 8)
			s.arena = append(*s.arenaPtr, s.data...)
			s.d = 1
			s.phase = acphBruck
		case acphBruck:
			if s.d >= s.c {
				s.rotateAndStartRing(pe)
				continue
			}
			dst := s.gb + (s.li-s.d+s.c)%s.c
			src := s.gb + (s.li+s.d)%s.c
			cnt := min(s.d, s.c-s.d)
			var elems int64
			for _, l := range s.lens[:cnt] {
				elems += l
			}
			s.h = pe.IRecv(src, s.tag)
			lp := s.ipool.Get(cnt)
			copy(*lp, s.lens[:cnt])
			dp := s.dpool.Get(int(elems))
			copy(*dp, s.arena[:elems])
			wp := s.wpool.Get(1)
			(*wp)[0] = bruckMsg[T]{lens: lp, data: dp}
			pe.Send(dst, s.tag, wp, int64(cnt)+elems*WordsOf[T]())
			s.phase = acphBruckWait
			if !s.h.Test() {
				return s.h
			}
		case acphBruckWait:
			rxAny, _ := s.h.Wait()
			s.h = nil
			rw := rxAny.(*[]bruckMsg[T])
			rx := (*rw)[0]
			s.lens = append(s.lens, (*rx.lens)...)
			s.arena = append(s.arena, (*rx.data)...)
			s.ipool.Put(rx.lens)
			s.dpool.Put(rx.data)
			(*rw)[0] = bruckMsg[T]{}
			s.wpool.Put(rw)
			s.d <<= 1
			s.phase = acphBruck
		case acphRing:
			if s.ri >= s.g {
				final := (*s.cur)[0]
				s.ipool.Put(final.lens)
				s.dpool.Put(final.data)
				(*s.cur)[0] = bruckMsg[T]{}
				s.wpool.Put(s.cur)
				s.cur = nil
				return s.finish(pe)
			}
			batch := (*s.cur)[0]
			var words int64
			for _, l := range *batch.lens {
				words += l
			}
			s.h = pe.IRecv(s.src, s.tag)
			pe.Send(s.dst, s.tag, s.cur, int64(s.c)+words*WordsOf[T]())
			s.cur = nil
			s.phase = acphRingWait
			if !s.h.Test() {
				return s.h
			}
		case acphRingWait:
			rxAny, _ := s.h.Wait()
			s.h = nil
			s.cur = rxAny.(*[]bruckMsg[T])
			rx := (*s.cur)[0]
			rank := pe.Rank()
			srcGroup := ((rank / s.c) - s.ri + s.g) % s.g
			visitBatch(srcGroup*s.c, *rx.lens, *rx.data, s.visit)
			s.ri++
			s.phase = acphRing
		default:
			return nil
		}
	}
}

// rotateAndStartRing rotates the group batch into canonical order (block
// of rank gb+j at position j), visits it, and sets up phase 2 — the
// inter-group ring where each round forwards the batch received in the
// previous round (ownership moves with the message).
func (s *agChunkedStep[T]) rotateAndStartRing(pe *comm.PE) {
	p := pe.P()
	rank := pe.Rank()
	c := s.c
	i0 := (c - s.li) % c
	var off0 int64
	for _, l := range s.lens[:i0] {
		off0 += l
	}
	canLens := s.ipool.Get(c)
	canData := s.dpool.Get(len(s.arena))
	copy(*canLens, s.lens[i0:])
	copy((*canLens)[c-i0:], s.lens[:i0])
	n := copy(*canData, s.arena[off0:])
	copy((*canData)[n:], s.arena[:off0])
	*s.lensPtr = s.lens
	s.ipool.Put(s.lensPtr)
	s.lensPtr, s.lens = nil, nil
	*s.arenaPtr = s.arena
	s.dpool.Put(s.arenaPtr)
	s.arenaPtr, s.arena = nil, nil

	s.cur = s.wpool.Get(1)
	(*s.cur)[0] = bruckMsg[T]{lens: canLens, data: canData}
	visitBatch(s.gb, *canLens, *canData, s.visit)

	s.tag = pe.NextCollTag()
	s.g = p / c
	s.dst = (rank + c) % p
	s.src = (rank - c + p) % p
	s.ri = 1
	s.phase = acphRing
}
