package comm_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	. "commtopk/internal/comm"
	"commtopk/internal/simexec"
)

// pairWaiter is a hand-written MultiWaiter that runs two blocking bodies
// as nested BodySteps, body i in context 3+5i, the way the serving mux
// runs a TopKFreq slot beside other queries: a sweep steps every body
// whose handle has bound, and the pair suspends on both handles.
type pairWaiter struct {
	bodies   [2]Stepper
	pending  [2]*RecvHandle
	done     [2]bool
	suspends *[2]int // this PE's suspensions per body
}

func (s *pairWaiter) PendingHandles(buf []*RecvHandle) []*RecvHandle {
	for _, h := range s.pending {
		if h != nil {
			buf = append(buf, h)
		}
	}
	return buf
}

func (s *pairWaiter) Step(pe *PE) *RecvHandle {
	for {
		progress := false
		for i, b := range s.bodies {
			if s.done[i] || s.pending[i] != nil && !s.pending[i].Test() {
				continue
			}
			progress = true
			pe.SetCtx(Ctx(3 + 5*i))
			s.pending[i] = b.Step(pe)
			pe.SetCtx(0)
			if s.done[i] = s.pending[i] == nil; !s.done[i] {
				s.suspends[i]++
			}
		}
		if s.done[0] && s.done[1] {
			return nil
		}
		if !progress {
			if s.pending[0] != nil {
				return s.pending[0]
			}
			return s.pending[1]
		}
	}
}

// ringBody is a blocking body of rounds ring shifts: PE 0 sends first,
// every other PE passes on what it received, folding it into *acc.
func ringBody(rounds int, mul int64, acc []int64) func(pe *PE) {
	return func(pe *PE) {
		p, r := pe.P(), pe.Rank()
		for i := 0; i < rounds; i++ {
			tag := Tag(40 + i)
			if r == 0 {
				pe.Send(1, tag, acc[r]+int64(i), int64(1+i))
			}
			rx, _ := pe.Recv((r-1+p)%p, tag)
			acc[r] = acc[r]*mul + rx.(int64)
			if r != 0 {
				pe.Send((r+1)%p, tag, acc[r], int64(1+i))
			}
		}
	}
}

// TestBodyStepNestedAlternates runs two ring bodies as BodySteps inside
// one pairWaiter per PE: each suspends and resumes on its own yield while
// the other runs, and the results and all six Stats fields equal the two
// bodies run back to back. Communication is priced at zero: the modeled
// clock is the one meter that depends on how the two bodies' sends and
// receives interleave on a PE, and the interleaving is the schedule's.
func TestBodyStepNestedAlternates(t *testing.T) {
	const p, rounds = 8, 6
	cfg := DefaultConfig(p)
	cfg.Alpha, cfg.Beta = 0, 0
	newAcc := func() [2][]int64 { return [2][]int64{make([]int64, p), make([]int64, p)} }
	backToBack := func(m *Machine) ([2][]int64, Stats) {
		defer m.Close()
		acc := newAcc()
		m.MustRun(func(pe *PE) {
			pe.SetCtx(3)
			ringBody(rounds, 31, acc[0])(pe)
			pe.SetCtx(8)
			ringBody(rounds, 37, acc[1])(pe)
			pe.SetCtx(0)
		})
		return acc, m.Stats()
	}
	nested := func(m *Machine) ([2][]int64, Stats, [2]int) {
		defer m.Close()
		acc := newAcc()
		perPE := make([][2]int, p)
		m.MustRunAsync(func(pe *PE) Stepper {
			return &pairWaiter{suspends: &perPE[pe.Rank()], bodies: [2]Stepper{
				BodyStep(pe, ringBody(rounds, 31, acc[0])),
				BodyStep(pe, ringBody(rounds, 37, acc[1])),
			}}
		})
		var suspends [2]int
		for _, s := range perPE {
			suspends[0] += s[0]
			suspends[1] += s[1]
		}
		return acc, m.Stats(), suspends
	}
	wantAcc, wantStats := backToBack(NewMachine(cfg))
	check := func(t *testing.T, m *Machine, needSuspends bool) {
		acc, stats, suspends := nested(m)
		if !reflect.DeepEqual(acc, wantAcc) {
			t.Errorf("results %v, want %v", acc, wantAcc)
		}
		if stats != wantStats {
			t.Errorf("meters %+v, want %+v", stats, wantStats)
		}
		if needSuspends && (suspends[0] == 0 || suspends[1] == 0) {
			t.Errorf("suspensions per body %v: each body must suspend for the test to show anything", suspends)
		}
		t.Logf("suspensions per body: %v", suspends)
	}
	t.Run("mailbox", func(t *testing.T) {
		for _, w := range []int{1, 3, p} {
			c := cfg
			c.Workers = w
			check(t, NewMachine(c), false)
		}
	})
	t.Run("matrix", func(t *testing.T) {
		for _, pol := range simexec.Policies {
			m, _ := simexec.New(cfg, 11, pol)
			check(t, m, true)
		}
	})
}

// TestBodyStepAbortStopsNestedBodies fails a run while the other PEs'
// nested bodies are suspended: PE 0 panics once every other PE's first
// body has sent it a message, and those bodies then wait on PE 0 for
// good, as do the second ones. The abort must stop the
// suspended coroutines of every PE — not only a PE's top-level body,
// which here is a pairWaiter — so the process is back at its goroutine
// count from before the run.
func TestBodyStepAbortStopsNestedBodies(t *testing.T) {
	const p = 8
	m := NewMachine(DefaultConfig(p))
	defer m.Close()
	body := func(first bool) func(pe *PE) {
		return func(pe *PE) {
			if pe.Rank() != 0 {
				if first {
					pe.Send(0, 60, nil, 1)
				}
				pe.Recv(0, 61)
				return
			}
			if first {
				for src := 1; src < p; src++ {
					pe.Recv(src, 60)
				}
				panic("boom")
			}
		}
	}
	m.MustRun(func(pe *PE) {}) // start the scheduler's workers
	baseline := runtime.NumGoroutine()
	suspends := make([][2]int, p)
	err := m.RunAsync(func(pe *PE) Stepper {
		return &pairWaiter{suspends: &suspends[pe.Rank()], bodies: [2]Stepper{BodyStep(pe, body(true)), BodyStep(pe, body(false))}}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("run error %v, want PE 0's panic", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	g := runtime.NumGoroutine()
	for g > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		g = runtime.NumGoroutine()
	}
	if g > baseline {
		t.Errorf("%d goroutines after the failed run, %d before it: suspended nested bodies leaked", g, baseline)
	}
	// The machine is reusable: the next run completes.
	m.MustRun(func(pe *PE) {})
}
