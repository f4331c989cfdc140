package comm_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	. "commtopk/internal/comm"
	"commtopk/internal/simexec"
)

// rig is one of the machines a substrate test runs on.
type rig struct {
	name string
	mk   func(p int) *Machine
}

// bothRigs are a production machine and the reference executor of
// internal/simexec. The second leg's name is older than that package (the
// reference used to be a channel-matrix transport); it stays so that test
// ids remain comparable across history.
var bothRigs = []rig{
	{"mailbox", func(p int) *Machine { return NewMachine(DefaultConfig(p)) }},
	{"chanmatrix", simexec.Reference},
}

// ringBodyRecv and ringBodyIRecv are the same shifted-ring exchange, one
// through blocking Recv, one through the handle API with Test polling —
// the two must be bit-identical in results and metered statistics.
func ringBodyRecv(pe *PE, out []int) {
	const tag Tag = 41
	p := pe.P()
	pe.Send((pe.Rank()+1)%p, tag, pe.Rank()*3, 2)
	rx, _ := pe.Recv((pe.Rank()-1+p)%p, tag)
	out[pe.Rank()] = rx.(int)
}

func ringBodyIRecv(pe *PE, out []int) {
	const tag Tag = 41
	p := pe.P()
	h := pe.IRecv((pe.Rank()-1+p)%p, tag)
	pe.Send((pe.Rank()+1)%p, tag, pe.Rank()*3, 2)
	h.Test() // polling must be harmless and meter-neutral
	rx, _ := h.Wait()
	out[pe.Rank()] = rx.(int)
}

// TestIRecvWaitMatchesRecv pins the sugar equation Recv = IRecv + Wait on
// both executors: identical results and identical metered statistics
// (words, startups, modeled clock) whether the receive is posted early,
// polled, or taken blocking.
func TestIRecvWaitMatchesRecv(t *testing.T) {
	for _, rig := range bothRigs {
		t.Run(rig.name, func(t *testing.T) {
			run := func(body func(pe *PE, out []int)) ([]int, Stats) {
				m := rig.mk(8)
				defer m.Close()
				out := make([]int, m.P())
				m.MustRun(func(pe *PE) { body(pe, out) })
				return out, m.Stats()
			}
			recvOut, recvStats := run(ringBodyRecv)
			irecvOut, irecvStats := run(ringBodyIRecv)
			for i := range recvOut {
				if recvOut[i] != irecvOut[i] {
					t.Fatalf("results diverge at rank %d: Recv %d, IRecv+Wait %d", i, recvOut[i], irecvOut[i])
				}
			}
			if recvStats != irecvStats {
				t.Errorf("stats diverge:\n  Recv:       %+v\n  IRecv+Wait: %+v", recvStats, irecvStats)
			}
		})
	}
}

// TestIRecvFIFOPerSource pins the posting-order completion rule: two
// receives posted against one source complete in post order even when
// waited out of arrival interleaving, on both executors.
func TestIRecvFIFOPerSource(t *testing.T) {
	for _, rig := range bothRigs {
		t.Run(rig.name, func(t *testing.T) {
			m := rig.mk(2)
			defer m.Close()
			m.MustRun(func(pe *PE) {
				const tag Tag = 17
				if pe.Rank() == 0 {
					pe.Send(1, tag, "first", 1)
					pe.Send(1, tag, "second", 1)
					return
				}
				h1 := pe.IRecv(0, tag)
				h2 := pe.IRecv(0, tag)
				// Waiting the second handle first must still deliver the
				// second message to it (the first binds to h1 on the way).
				if rx, _ := h2.Wait(); rx.(string) != "second" {
					t.Errorf("h2 got %v", rx)
				}
				if rx, _ := h1.Wait(); rx.(string) != "first" {
					t.Errorf("h1 got %v", rx)
				}
			})
		})
	}
}

// TestHandleMisusePanics pins the consumed-handle contract.
func TestHandleMisusePanics(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	defer m.Close()
	err := m.Run(func(pe *PE) {
		const tag Tag = 5
		if pe.Rank() == 0 {
			pe.Send(1, tag, nil, 1)
			return
		}
		h := pe.IRecv(0, tag)
		h.Wait()
		h.Wait() // second Wait must panic, not corrupt the freelist
	})
	if err == nil || !strings.Contains(err.Error(), "completed or unposted") {
		t.Fatalf("double Wait: got %v", err)
	}
}

// cascadeStart builds the reverse-cascade continuation body: every rank
// but the last waits for its successor's token before passing one down.
// It suspends p−1 bodies at peak — the maximally suspended workload, for
// which a blocking Run holds p coroutines.
func cascadeStart(tag Tag, out []int64) func(pe *PE) Stepper {
	return func(pe *PE) Stepper {
		var h *RecvHandle
		phase := 0
		var got int64
		return StepFunc(func(pe *PE) *RecvHandle {
			p := pe.P()
			for {
				switch phase {
				case 0:
					if pe.Rank() == p-1 {
						phase = 2
						continue
					}
					h = pe.IRecv(pe.Rank()+1, tag)
					phase = 1
					if !h.Test() {
						return h
					}
				case 1:
					v, _ := h.Wait()
					got = v.(int64)
					phase = 2
				case 2:
					if pe.Rank() > 0 {
						pe.Send(pe.Rank()-1, tag, got+1, 1)
					}
					phase = 3
				default:
					if out != nil {
						out[pe.Rank()] = got
					}
					return nil
				}
			}
		})
	}
}

// TestRunAsyncCascade runs the suspension-heavy cascade on both executors
// (production at several scheduler widths) and checks results and stats
// against each other.
func TestRunAsyncCascade(t *testing.T) {
	const p = 64
	var wantStats *Stats
	check := func(t *testing.T, m *Machine) {
		defer m.Close()
		out := make([]int64, p)
		for round := 0; round < 3; round++ {
			for i := range out {
				out[i] = -1
			}
			m.ResetStats()
			if err := m.RunAsync(cascadeStart(Tag(100), out)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for r := 0; r < p-1; r++ {
				if out[r] != int64(p-1-r) {
					t.Fatalf("round %d: rank %d got %d, want %d", round, r, out[r], p-1-r)
				}
			}
			s := m.Stats()
			if wantStats == nil {
				wantStats = &s
			} else if s != *wantStats {
				t.Errorf("stats diverge: %+v vs %+v", s, *wantStats)
			}
		}
	}
	t.Run("chanmatrix", func(t *testing.T) { check(t, simexec.Reference(p)) })
	for _, w := range []int{0, 1, 4} {
		cfg := DefaultConfig(p)
		cfg.Workers = w
		t.Run(fmt.Sprintf("mailbox/w=%d", w), func(t *testing.T) { check(t, NewMachine(cfg)) })
	}
}

// TestRunAsyncMidRunResidency is the mid-collective extension of the
// residency guard: while a p = 16384 cascade is in flight — with
// thousands of PE bodies simultaneously waiting — the process goroutine
// count must stay at w + O(1). This is the property a blocking Run
// cannot provide (every body holds a coroutine) and the reason the async
// API exists.
func TestRunAsyncMidRunResidency(t *testing.T) {
	const p = 16384
	before := runtime.NumGoroutine()
	m := NewMachine(DefaultConfig(p))
	defer m.Close()
	w := m.Workers()
	if w >= p/4 {
		t.Skipf("GOMAXPROCS too large for a meaningful bound (w=%d, p=%d)", w, p)
	}
	done := make(chan struct{})
	var maxMid atomic.Int64
	var samples atomic.Int64
	go func() {
		defer close(done)
		// Two chained cascades lengthen the in-flight window.
		m.MustRunAsync(func(pe *PE) Stepper {
			return SeqP(pe, cascadeStart(Tag(7), nil)(pe), cascadeStart(Tag(8), nil)(pe))
		})
	}()
	for {
		select {
		case <-done:
			if samples.Load() == 0 {
				t.Log("run finished before the first sample; residency not observed mid-run")
			}
			// +3: the run goroutine, this test goroutine's own scheduling
			// slack, and the coordinator blocked in wg.Wait.
			if got := maxMid.Load(); got > int64(before+w+3) {
				t.Errorf("mid-run goroutines reached %d (baseline %d, w=%d); continuation scheduling broken", got, before, w)
			}
			return
		default:
			if g := int64(runtime.NumGoroutine()); g > maxMid.Load() {
				maxMid.Store(g)
			}
			samples.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// TestRunAsyncAbort pins error propagation and machine reuse when a
// continuation body panics while thousands of its peers are suspended:
// the box interrupts must resume every suspended rank so the run can
// unwind, and the next run must start clean.
func TestRunAsyncAbort(t *testing.T) {
	const p = 256
	m := NewMachine(DefaultConfig(p))
	defer m.Close()
	err := m.RunAsync(func(pe *PE) Stepper {
		var h *RecvHandle
		return StepFunc(func(pe *PE) *RecvHandle {
			if pe.Rank() == p-1 {
				panic("boom")
			}
			// Everyone else suspends on a message that never comes.
			if h == nil {
				h = pe.IRecv(pe.Rank()+1, Tag(9))
			}
			if !h.Test() {
				return h
			}
			h.Wait()
			return nil
		})
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic propagation, got %v", err)
	}
	// Reusable afterwards, for both async and blocking runs.
	out := make([]int64, p)
	m.MustRunAsync(cascadeStart(Tag(10), out))
	if out[0] != p-1 {
		t.Errorf("post-abort cascade got %d", out[0])
	}
	m.MustRun(func(pe *PE) {
		const tag Tag = 11
		if pe.Rank() == 0 {
			pe.Send(1, tag, 42, 1)
		} else if pe.Rank() == 1 {
			if rx, _ := pe.Recv(0, tag); rx.(int) != 42 {
				t.Errorf("post-abort recv got %v", rx)
			}
		}
	})
}

// TestRunAsyncContinuationStress is the -race stress over continuation
// suspend/resume at w < p: pseudo-random partner shifts make resume
// events land on arbitrary workers while others are mid-batch, repeated
// across rounds so ready-list and run-boundary interleavings vary.
func TestRunAsyncContinuationStress(t *testing.T) {
	const p, rounds = 96, 20
	for _, w := range []int{1, 3} {
		cfg := DefaultConfig(p)
		cfg.Workers = w
		m := NewMachine(cfg)
		for round := 0; round < rounds; round++ {
			shift := 1 + round%(p-1)
			tag := Tag(1000 + round)
			var bad atomic.Int32
			if err := m.RunAsync(func(pe *PE) Stepper {
				var h *RecvHandle
				sent := false
				return StepFunc(func(pe *PE) *RecvHandle {
					if !sent {
						sent = true
						pe.Send((pe.Rank()+shift)%p, tag, pe.Rank(), 1)
						h = pe.IRecv((pe.Rank()-shift+p)%p, tag)
						if !h.Test() {
							return h
						}
					}
					rx, _ := h.Wait()
					if rx.(int) != (pe.Rank()-shift+p)%p {
						bad.Add(1)
					}
					return nil
				})
			}); err != nil {
				t.Fatalf("w=%d round %d: %v", w, round, err)
			}
			if bad.Load() != 0 {
				t.Fatalf("w=%d round %d: %d ranks received wrong payloads", w, round, bad.Load())
			}
		}
		m.Close()
	}
}

// TestRunAsyncBlockingRecvInStepperFailsRun pins what happens to a
// stepper that breaks the Step contract: a blocking Recv whose message
// has not arrived would stall a scheduler worker, so it fails the run
// with an error naming the rank — no hang — and the machine is reusable.
func TestRunAsyncBlockingRecvInStepperFailsRun(t *testing.T) {
	const p = 8
	cfg := DefaultConfig(p)
	cfg.Workers = 2
	m := NewMachine(cfg)
	defer m.Close()
	err := m.RunAsync(func(pe *PE) Stepper {
		return StepFunc(func(pe *PE) *RecvHandle {
			if pe.Rank() == 3 {
				pe.Recv(4, Tag(12)) // rank 4 never sends
			}
			return nil
		})
	})
	if err == nil || !strings.Contains(err.Error(), "PE 3") || !strings.Contains(err.Error(), "blocking receive inside a Stepper") {
		t.Fatalf("blocking Recv in a stepper: got %v", err)
	}
	// A Recv whose message is already queued never waits and stays legal.
	m.MustRunAsync(func(pe *PE) Stepper {
		var h *RecvHandle
		return StepFunc(func(pe *PE) *RecvHandle {
			const tag Tag = 13
			if h == nil {
				pe.Send((pe.Rank()+1)%p, tag, pe.Rank(), 1)
				h = pe.IRecv((pe.Rank()-1+p)%p, tag)
			}
			if !h.Test() {
				return h
			}
			if rx, _ := h.Wait(); rx.(int) != (pe.Rank()-1+p)%p {
				t.Errorf("PE %d: got %v", pe.Rank(), rx)
			}
			return nil
		})
	})
	out := make([]int64, p)
	m.MustRunAsync(cascadeStart(Tag(14), out))
	if out[0] != p-1 {
		t.Errorf("post-failure cascade got %d", out[0])
	}
	m.MustRun(func(pe *PE) { ringBodyRecv(pe, make([]int, p)) })
}

// settleGoroutines polls until the process goroutine count is at most
// bound: a finished body's coroutine, or a released worker, exits a few
// instructions after the run has seen it finish.
func settleGoroutines(t *testing.T, what string, bound int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		if n = runtime.NumGoroutine(); n <= bound {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("%s: %d goroutines, want ≤ %d", what, n, bound)
}

// panicAfterTokens is the failing body of TestBlockingRunAbortWhileSuspended,
// a named function so the error can be checked for the body's own frame.
func panicAfterTokens(pe *PE, tag Tag) {
	for src := 0; src < pe.P()-1; src++ {
		pe.Recv(src, tag)
	}
	panic("boom")
}

// TestBlockingRunAbortWhileSuspended pins the failure paths of blocking
// bodies, which run as coroutines on the scheduler, at w = 1 and at the
// default width: one PE panics while every other body is suspended in
// Recv, and an external abort (the wire transport's worker-death hook)
// arrives while all of them are. Run returns the error — for the panic
// with the panicking body's own frame, which a stack taken on the worker
// would not show — the machine is reusable, and the goroutine count
// settles back to the baseline plus the w workers, so no suspended
// coroutine leaks.
func TestBlockingRunAbortWhileSuspended(t *testing.T) {
	const p = 16
	const tag Tag = 71
	for _, w := range []int{1, 0} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := DefaultConfig(p)
			cfg.Workers = w
			m := NewMachine(cfg)
			defer m.Close()
			resident := before + m.Workers() + 2

			// Every PE but the last hands it a token and then waits for a
			// message that never comes; the last panics once it holds all
			// the tokens, so the others are suspended (or about to be).
			err := m.Run(func(pe *PE) {
				if pe.Rank() == p-1 {
					panicAfterTokens(pe, tag)
				}
				pe.Send(p-1, tag, nil, 1)
				pe.Recv(p-1, tag+1)
			})
			if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "panicAfterTokens") {
				t.Fatalf("want the panic with the body's own frame, got %v", err)
			}
			settleGoroutines(t, "after a panic", resident)

			// Every PE waits on its successor, which never sends; the abort
			// comes from outside once all of them have reached the Recv.
			died := errors.New("worker died")
			var waiting atomic.Int32
			go func() {
				for waiting.Load() < p {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(5 * time.Millisecond)
				m.AbortExternal(died)
			}()
			err = m.Run(func(pe *PE) {
				waiting.Add(1)
				pe.Recv((pe.Rank()+1)%p, tag)
			})
			if !errors.Is(err, died) {
				t.Fatalf("want the external abort, got %v", err)
			}
			settleGoroutines(t, "after an external abort", resident)

			out := make([]int, p)
			m.MustRun(func(pe *PE) { ringBodyRecv(pe, out) })
			for r, got := range out {
				if want := (r - 1 + p) % p * 3; got != want {
					t.Fatalf("after the aborts: rank %d got %d, want %d", r, got, want)
				}
			}
			settleGoroutines(t, "after a clean run", resident)
		})
	}
}

// TestBlockingBodyGoexitFailsRun pins that runtime.Goexit in a blocking
// body (what t.FailNow does) fails the run like a panic instead of ending
// the scheduler worker the body's coroutine was resumed on, which would
// leave its rank open forever.
func TestBlockingBodyGoexitFailsRun(t *testing.T) {
	const p = 4
	cfg := DefaultConfig(p)
	cfg.Workers = 1
	m := NewMachine(cfg)
	defer m.Close()
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 1 {
			runtime.Goexit()
		}
		pe.Recv((pe.Rank()+1)%p, Tag(72))
	})
	if err == nil || !strings.Contains(err.Error(), "PE 1") || !strings.Contains(err.Error(), "Goexit") {
		t.Fatalf("want the Goexit as PE 1's failure, got %v", err)
	}
	m.MustRun(func(pe *PE) { ringBodyRecv(pe, make([]int, p)) })
}

// TestRunAsyncInterleavedWithBlockingRuns pins cross-mode machine reuse:
// async and blocking runs alternate on one machine and the folded stats
// keep accumulating coherently.
func TestRunAsyncInterleavedWithBlockingRuns(t *testing.T) {
	const p = 16
	ma := NewMachine(DefaultConfig(p))
	defer ma.Close()
	mb := simexec.Reference(p)
	defer mb.Close()
	for i := 0; i < 4; i++ {
		out := make([]int64, p)
		ma.MustRunAsync(cascadeStart(Tag(50+i), out))
		mb.MustRunAsync(cascadeStart(Tag(50+i), out))
		ma.MustRun(func(pe *PE) { ringBodyRecv(pe, make([]int, p)) })
		mb.MustRun(func(pe *PE) { ringBodyRecv(pe, make([]int, p)) })
		if sa, sb := ma.Stats(), mb.Stats(); sa != sb {
			t.Fatalf("cycle %d: cumulative stats diverge:\n  production: %+v\n  reference:  %+v", i, sa, sb)
		}
	}
}

// ringCollStep is a minimal collective: one ring shift under the PE's
// next collective tag.
func ringCollStep() Stepper {
	var h *RecvHandle
	return StepFunc(func(pe *PE) *RecvHandle {
		p := pe.P()
		if h == nil {
			tag := pe.NextCollTag()
			h = pe.IRecv((pe.Rank()-1+p)%p, tag)
			pe.Send((pe.Rank()+1)%p, tag, pe.Rank(), 1)
		}
		if !h.Test() {
			return h
		}
		h.Wait()
		return nil
	})
}

// TestAbortedRunResetsCollectiveTags is the regression for reuse after an
// abort that interrupts collectives: the bodies unwind at different points
// of their collective tag sequences (the failing rank before its first
// collective, its ring successor inside the first, the others inside the
// second), and the next run's collectives must agree on tags again — as
// blocking bodies and as steppers, in context 0 and in a leased context.
func TestAbortedRunResetsCollectiveTags(t *testing.T) {
	const p = 4
	for _, async := range []bool{false, true} {
		for _, leased := range []bool{false, true} {
			t.Run(fmt.Sprintf("async=%v/leased=%v", async, leased), func(t *testing.T) {
				m := NewMachine(DefaultConfig(p))
				defer m.Close()
				var ctx Ctx
				if leased {
					ctx = m.NewContext()
				}
				run := func(failing bool) error {
					start := func(pe *PE) Stepper {
						return SeqP(pe,
							StepFunc(func(pe *PE) *RecvHandle {
								pe.SetCtx(ctx)
								if failing && pe.Rank() == 2 {
									panic("boom")
								}
								return nil
							}),
							ringCollStep(), ringCollStep(),
							StepFunc(func(pe *PE) *RecvHandle { pe.SetCtx(0); return nil }),
						)
					}
					if async {
						return m.RunAsync(start)
					}
					return m.Run(func(pe *PE) { RunSteps(pe, start(pe)) })
				}
				if err := run(true); err == nil || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("expected panic propagation, got %v", err)
				}
				if err := run(false); err != nil {
					t.Fatalf("machine not reusable after an abort inside collectives: %v", err)
				}
			})
		}
	}
}
