package comm_test

import (
	"fmt"
	"sync"
	"testing"

	. "commtopk/internal/comm"
	"commtopk/internal/simexec"
)

// TestCtxIsolatedStreams pins the core serving invariant on both
// executors: traffic under different contexts between the same (src, dst)
// pair with the SAME tag forms independent FIFO streams. Receives posted
// under one context never bind another context's messages, even when the
// other context's messages arrive first (the mailbox's keyed demux).
func TestCtxIsolatedStreams(t *testing.T) {
	for _, rig := range bothRigs {
		t.Run(rig.name, func(t *testing.T) {
			m := rig.mk(4)
			defer m.Close()
			m.MustRun(func(pe *PE) {
				const tag Tag = 61
				p, r := pe.P(), pe.Rank()
				right, left := (r+1)%p, (r-1+p)%p
				// Post receives for BOTH contexts before anything is sent,
				// then send ctx 7 traffic first and ctx 3 second — waiting
				// ctx 3 first forces the receiver past queued ctx 7 messages.
				pe.SetCtx(3)
				h3 := pe.IRecv(left, tag)
				pe.SetCtx(7)
				h7a := pe.IRecv(left, tag)
				h7b := pe.IRecv(left, tag)
				pe.Send(right, tag, fmt.Sprintf("c7a-%d", r), 1)
				pe.Send(right, tag, fmt.Sprintf("c7b-%d", r), 1)
				pe.SetCtx(3)
				pe.Send(right, tag, fmt.Sprintf("c3-%d", r), 1)
				if rx, _ := h3.Wait(); rx.(string) != fmt.Sprintf("c3-%d", left) {
					t.Errorf("rank %d ctx 3 got %v", r, rx)
				}
				if rx, _ := h7a.Wait(); rx.(string) != fmt.Sprintf("c7a-%d", left) {
					t.Errorf("rank %d ctx 7 first got %v", r, rx)
				}
				if rx, _ := h7b.Wait(); rx.(string) != fmt.Sprintf("c7b-%d", left) {
					t.Errorf("rank %d ctx 7 second got %v", r, rx)
				}
				pe.SetCtx(0)
			})
		})
	}
}

// TestCtxCollTagSequences pins per-context collective tag sequences:
// each context numbers its collectives independently, and context 0
// keeps the pre-context fast path. A shared counter would desynchronize
// tags when PEs interleave contexts in different orders.
func TestCtxCollTagSequences(t *testing.T) {
	m := NewMachine(DefaultConfig(1))
	defer m.Close()
	m.MustRun(func(pe *PE) {
		t0a := pe.NextCollTag()
		pe.SetCtx(2)
		c2a := pe.NextCollTag()
		pe.SetCtx(9)
		c9a := pe.NextCollTag()
		pe.SetCtx(2)
		c2b := pe.NextCollTag()
		pe.SetCtx(0)
		t0b := pe.NextCollTag()
		if c2a != c9a {
			t.Errorf("fresh contexts start at different seq: %d vs %d", c2a, c9a)
		}
		if c2b == c2a {
			t.Error("ctx 2 sequence did not advance")
		}
		if t0b != t0a+1 {
			t.Errorf("ctx 0 sequence disturbed by other contexts: %d then %d", t0a, t0b)
		}
		pe.SetCtx(0)
	})
}

// TestContextPoolReuse pins the lease pool: fresh ids are dense from 1,
// released ids are recycled LIFO, and the default context can never be
// released.
func TestContextPoolReuse(t *testing.T) {
	m := NewMachine(DefaultConfig(1))
	defer m.Close()
	a, b, c := m.NewContext(), m.NewContext(), m.NewContext()
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("fresh contexts = %d %d %d", a, b, c)
	}
	m.ReleaseContext(b)
	if got := m.NewContext(); got != b {
		t.Fatalf("released context not recycled: got %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing context 0 did not panic")
		}
	}()
	m.ReleaseContext(0)
}

// TestPostDoorbell pins external injection on both executors: a
// non-PE goroutine Posts a message mid-run, every PE receives it from
// ExternalSrc under the posted context, and the receive is metered as a
// pure receive (one startup, no send charged to any PE).
func TestPostDoorbell(t *testing.T) {
	for _, rig := range bothRigs {
		t.Run(rig.name, func(t *testing.T) {
			m := rig.mk(3)
			defer m.Close()
			cfg := m.Config()
			const tag Tag = 77
			ctx := m.NewContext()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for dst := 0; dst < cfg.P; dst++ {
					m.Post(dst, ctx, tag, dst*11, 1)
				}
			}()
			m.MustRun(func(pe *PE) {
				pe.SetCtx(ctx)
				h := pe.IRecv(pe.ExternalSrc(), tag)
				if rx, _ := h.Wait(); rx.(int) != pe.Rank()*11 {
					t.Errorf("rank %d doorbell payload %v", pe.Rank(), rx)
				}
				pe.SetCtx(0)
			})
			wg.Wait()
			s := m.Stats()
			if s.MaxSends != 0 {
				t.Errorf("Post charged a PE send: %+v", s)
			}
			if want := cfg.Alpha + cfg.Beta; s.MaxClock != want {
				t.Errorf("doorbell receive clock = %v, want α+β = %v", s.MaxClock, want)
			}
			m.ReleaseContext(ctx)
		})
	}
}

// anyWaiter is the test MultiWaiter: a two-phase stepper whose PE posts
// one receive in each of two contexts, sends the matching traffic, and
// then must complete when EITHER pending handle binds — the shape of a
// serving mux with several queries in flight.
type anyWaiter struct {
	phase  int
	h3, h8 *RecvHandle
	out    []string
}

func (s *anyWaiter) PendingHandles(buf []*RecvHandle) []*RecvHandle {
	// Step only returns a handle after Test failed on every one it still
	// holds, so each of those is pending.
	if s.h3 != nil {
		buf = append(buf, s.h3)
	}
	if s.h8 != nil {
		buf = append(buf, s.h8)
	}
	return buf
}

func (s *anyWaiter) Step(pe *PE) *RecvHandle {
	const tag Tag = 83
	p, r := pe.P(), pe.Rank()
	for {
		switch s.phase {
		case 0:
			pe.SetCtx(3)
			s.h3 = pe.IRecv((r-1+p)%p, tag)
			pe.Send((r+1)%p, tag, fmt.Sprintf("c3-%d", r), 1)
			pe.SetCtx(8)
			s.h8 = pe.IRecv((r+1)%p, tag)
			pe.Send((r-1+p)%p, tag, fmt.Sprintf("c8-%d", r), 1)
			s.phase = 1
		case 1:
			// Wait for whichever stream delivers first; suspending here
			// must arm BOTH (src, ctx) keys or the body can strand.
			if s.h3 != nil && s.h3.Test() {
				rx, _ := s.h3.Wait()
				s.out[r] += rx.(string) + " "
				s.h3 = nil
				continue
			}
			if s.h8 != nil && s.h8.Test() {
				rx, _ := s.h8.Wait()
				s.out[r] += rx.(string) + " "
				s.h8 = nil
				continue
			}
			if s.h3 == nil && s.h8 == nil {
				pe.SetCtx(0)
				return nil
			}
			if s.h3 != nil {
				return s.h3
			}
			return s.h8
		}
	}
}

// TestMultiWaiterAnyOfResume drives anyWaiter through its execution
// paths — RunAsync and blocking RunSteps (a coroutine in a multi-wait),
// both suspended with ArmKeys, in production, and both again on the
// reference executor,
// whose seeded delivery order decides which stream binds first — and
// requires every PE to consume both streams regardless of arrival order.
func TestMultiWaiterAnyOfResume(t *testing.T) {
	const p = 8
	check := func(t *testing.T, out []string) {
		for r := 0; r < p; r++ {
			want3 := fmt.Sprintf("c3-%d", (r-1+p)%p)
			want8 := fmt.Sprintf("c8-%d", (r+1)%p)
			if out[r] != want3+" "+want8+" " && out[r] != want8+" "+want3+" " {
				t.Errorf("rank %d consumed %q", r, out[r])
			}
		}
	}
	t.Run("mailbox/async", func(t *testing.T) {
		m := NewMachine(DefaultConfig(p))
		defer m.Close()
		out := make([]string, p)
		m.MustRunAsync(func(pe *PE) Stepper { return &anyWaiter{out: out} })
		check(t, out)
	})
	t.Run("mailbox/blocking", func(t *testing.T) {
		m := NewMachine(DefaultConfig(p))
		defer m.Close()
		out := make([]string, p)
		m.MustRun(func(pe *PE) { RunSteps(pe, &anyWaiter{out: out}) })
		check(t, out)
	})
	t.Run("matrix/blocking", func(t *testing.T) {
		m := simexec.Reference(p)
		defer m.Close()
		out := make([]string, p)
		m.MustRun(func(pe *PE) { RunSteps(pe, &anyWaiter{out: out}) })
		check(t, out)
	})
	t.Run("matrix/async", func(t *testing.T) {
		for _, pol := range simexec.Policies {
			m, _ := simexec.New(DefaultConfig(p), 7, pol)
			out := make([]string, p)
			m.MustRunAsync(func(pe *PE) Stepper { return &anyWaiter{out: out} })
			m.Close()
			check(t, out)
		}
	})
}
