package comm_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	. "commtopk/internal/comm"
)

// These tests pin the production machine itself: mailbox transport,
// scheduler, estimator, residency. (Differential coverage against the
// reference executor over the collective suite lives in
// internal/experiments.)

func TestMailboxBasicSendRecv(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	defer m.Close()
	err := m.Run(func(pe *PE) {
		const tag Tag = 7
		if pe.Rank() == 0 {
			pe.Send(1, tag, []int64{1, 2, 3}, 3)
		} else {
			data, words := pe.Recv(0, tag)
			got := data.([]int64)
			if words != 3 || len(got) != 3 || got[2] != 3 {
				t.Errorf("recv got %v (%d words)", got, words)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxManyPEsAllExchange(t *testing.T) {
	// Dense exchange: every PE sends to every other, interleaving all
	// senders in each intake.
	const p = 16
	m := NewMachine(DefaultConfig(p))
	defer m.Close()
	m.MustRun(func(pe *PE) {
		const tag Tag = 11
		for i := 1; i < p; i++ {
			dst := (pe.Rank() + i) % p
			pe.Send(dst, tag, pe.Rank(), 1)
		}
		sum := 0
		for i := 1; i < p; i++ {
			src := (pe.Rank() - i + p) % p
			rx, _ := pe.Recv(src, tag)
			sum += rx.(int)
		}
		want := p*(p-1)/2 - pe.Rank()
		if sum != want {
			t.Errorf("PE %d: sum=%d want %d", pe.Rank(), sum, want)
		}
	})
}

func TestMailboxPerSenderFIFOUnderReordering(t *testing.T) {
	// Receive sources in the opposite order they become ready: messages
	// from the not-yet-wanted sender must stash without disturbing the
	// per-sender order.
	m := NewMachine(DefaultConfig(3))
	defer m.Close()
	m.MustRun(func(pe *PE) {
		const tag Tag = 5
		switch pe.Rank() {
		case 0:
			for i := 0; i < 4; i++ {
				pe.Send(2, tag, 100+i, 1)
			}
		case 1:
			for i := 0; i < 4; i++ {
				pe.Send(2, tag, 200+i, 1)
			}
		case 2:
			// Drain sender 1 first, then sender 0.
			for i := 0; i < 4; i++ {
				rx, _ := pe.Recv(1, tag)
				if rx.(int) != 200+i {
					t.Errorf("from 1 step %d: got %v", i, rx)
				}
			}
			for i := 0; i < 4; i++ {
				rx, _ := pe.Recv(0, tag)
				if rx.(int) != 100+i {
					t.Errorf("from 0 step %d: got %v", i, rx)
				}
			}
		}
	})
}

func TestMailboxRunPropagatesPanicAndReuses(t *testing.T) {
	m := NewMachine(DefaultConfig(4))
	defer m.Close()
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 2 {
			panic("boom")
		}
		// Other PEs block on a message that never comes; the box interrupt
		// must release them.
		pe.Recv((pe.Rank()+1)%4, 99)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic propagation, got %v", err)
	}
	// The machine (and its persistent workers) must be reusable after an
	// abort, with queues drained.
	if err := m.Run(func(pe *PE) {}); err != nil {
		t.Fatalf("machine not reusable after abort: %v", err)
	}
	m.MustRun(func(pe *PE) {
		const tag Tag = 3
		if pe.Rank() == 0 {
			pe.Send(1, tag, 42, 1)
		} else if pe.Rank() == 1 {
			if rx, _ := pe.Recv(0, tag); rx.(int) != 42 {
				t.Errorf("post-abort recv got %v", rx)
			}
		}
	})
}

func TestMailboxTagMismatchDetected(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	defer m.Close()
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 5, nil, 0)
		} else {
			pe.Recv(0, 6)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("expected tag mismatch error, got %v", err)
	}
}

func TestMailboxWaitTimeAccumulates(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	defer m.Close()
	var waited time.Duration
	m.MustRun(func(pe *PE) {
		const tag Tag = 9
		if pe.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			pe.Send(1, tag, nil, 1)
		} else {
			pe.Recv(0, tag)
			waited = pe.WaitTime()
		}
	})
	if waited < 5*time.Millisecond {
		t.Errorf("blocked receive recorded only %v of wait time", waited)
	}
}

func TestMailboxCloseIdempotent(t *testing.T) {
	m := NewMachine(DefaultConfig(4))
	m.MustRunAsync(func(pe *PE) Stepper { return nil }) // spawn the workers
	m.Close()
	m.Close() // second Close must be a no-op, not a double channel close
}

func TestMailboxWorkersReleasedOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewMachine(DefaultConfig(64))
	m.MustRunAsync(func(pe *PE) Stepper { return nil }) // spawn the workers
	m.Close()
	settleGoroutines(t, fmt.Sprintf("workers after Close (baseline %d)", before), before+2)
}

// TestMailboxRunZeroAllocSteadyState is the AllocsPerRun guard of the
// persistent worker pool: after the first RunAsync has started the
// workers, a RunAsync dispatch itself must not allocate (a blocking Run
// pays a coroutine per PE).
func TestMailboxRunZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewMachine(DefaultConfig(64))
	defer m.Close()
	start := func(pe *PE) Stepper { return nil }
	m.MustRunAsync(start) // spawn the worker pool outside the measurement
	allocs := testing.AllocsPerRun(50, func() {
		m.MustRunAsync(start)
	})
	if allocs > 0.5 {
		t.Errorf("steady-state empty RunAsync allocates %.1f times, want 0", allocs)
	}
}

// TestQueueBytesGrowth pins the memory claim the mailbox transport
// exists for: a machine's up-front memory is O(p).
func TestQueueBytesGrowth(t *testing.T) {
	// 16× more PEs: O(p) grows 16×.
	if g := float64(MachineBytes(DefaultConfig(4096))) / float64(MachineBytes(DefaultConfig(256))); g > 20 {
		t.Errorf("machine estimate grew %.0f× for 16× PEs; want O(p)", g)
	}
	if got := MachineBytes(DefaultConfig(4096)); got > 16<<20 {
		t.Errorf("estimate at p=4096 = %d B; expected well under 16 MB", got)
	}
}

// TestDefaultConfigIsMailbox pins that there is nothing to select: the
// zero value of every Config field but P builds the same production
// machine DefaultConfig does — mailboxes and a scheduler of the default
// width.
func TestDefaultConfigIsMailbox(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(4), {P: 4}} {
		m := NewMachine(cfg)
		if w := m.Workers(); w != SchedWorkers(cfg) || w < 1 {
			t.Errorf("%+v: Workers = %d, want the scheduler width %d", cfg, w, SchedWorkers(cfg))
		}
		m.MustRunAsync(func(pe *PE) Stepper { return nil })
		m.Close()
	}
}

// TestMachineBytesGrowth pins that the estimator charges the scheduler:
// more workers, more bytes.
func TestMachineBytesGrowth(t *testing.T) {
	wide, narrow := DefaultConfig(1024), DefaultConfig(1024)
	wide.Workers, narrow.Workers = 512, 4
	if MachineBytes(wide) <= MachineBytes(narrow) {
		t.Errorf("scheduler state not charged: w=512 → %d B, w=4 → %d B", MachineBytes(wide), MachineBytes(narrow))
	}
}

// TestSchedWorkersResolution pins the w = min(GOMAXPROCS·8, p) default
// and the clamping of explicit widths.
func TestSchedWorkersResolution(t *testing.T) {
	if w := SchedWorkers(DefaultConfig(1 << 20)); w != min(runtime.GOMAXPROCS(0)*8, 1<<20) {
		t.Errorf("auto w = %d", w)
	}
	if w := SchedWorkers(DefaultConfig(3)); w != 3 {
		t.Errorf("auto w at p=3 = %d, want 3", w)
	}
	cfg := DefaultConfig(64)
	cfg.Workers = 4
	if w := SchedWorkers(cfg); w != 4 {
		t.Errorf("explicit w = %d, want 4", w)
	}
	cfg.Workers = 1 << 20
	if w := SchedWorkers(cfg); w != 64 {
		t.Errorf("oversized w = %d, want clamp to 64", w)
	}
	m := NewMachine(DefaultConfig(16))
	defer m.Close()
	if m.Workers() != SchedWorkers(m.Config()) {
		t.Errorf("Machine.Workers = %d, want %d", m.Workers(), SchedWorkers(m.Config()))
	}
}

// TestMailboxSchedulerWLessThanP runs blocking bodies on a machine with
// far fewer scheduler workers than PEs: every body waits on its
// successor, so the 4 workers must suspend and resume 64 coroutines, and
// no result may depend on the scheduler width.
func TestMailboxSchedulerWLessThanP(t *testing.T) {
	const p = 64
	cfg := DefaultConfig(p)
	cfg.Workers = 4
	m := NewMachine(cfg)
	defer m.Close()
	for round := 0; round < 3; round++ {
		m.MustRun(func(pe *PE) {
			const tag Tag = 21
			// Reverse-order ring: every PE waits on its successor.
			next := (pe.Rank() + 1) % p
			prev := (pe.Rank() - 1 + p) % p
			pe.Send(prev, tag, pe.Rank()+round, 1)
			rx, _ := pe.Recv(next, tag)
			if rx.(int) != next+round {
				t.Errorf("PE %d: got %v", pe.Rank(), rx)
			}
		})
	}
}

// TestMailboxGoroutineCountResident is the tentpole residency guard: a
// resident p = 16384 machine keeps its goroutine count at O(w), not O(p).
// A blocking run, in which thousands of PE bodies were suspended in a
// coroutine each, leaves none of them behind when it returns; the w
// workers it starts are all that stays, and a stepper run adds nothing.
func TestMailboxGoroutineCountResident(t *testing.T) {
	const p = 16384
	before := runtime.NumGoroutine()
	m := NewMachine(DefaultConfig(p))
	defer m.Close()
	w := m.Workers()
	if w >= p/4 {
		t.Skipf("GOMAXPROCS too large for a meaningful bound (w=%d, p=%d)", w, p)
	}
	// A shifted ring suspends essentially every PE body at least once.
	m.MustRun(func(pe *PE) {
		const tag Tag = 33
		pe.Send((pe.Rank()+1)%p, tag, nil, 1)
		pe.Recv((pe.Rank()-1+p)%p, tag)
	})
	settleGoroutines(t, fmt.Sprintf("after a blocking run (baseline %d, w=%d)", before, w), before+w+2)
	m.MustRunAsync(cascadeStart(Tag(34), nil))
	settleGoroutines(t, fmt.Sprintf("resident after a stepper run (baseline %d, w=%d)", before, w), before+w+2)
}

// heapInUse forces a GC and returns live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestMailboxMachineMemoryMeasured verifies the O(p) claim on the real
// allocator, not just the estimate: a 4096-PE machine costs little heap,
// and no more than MachineBytes says (the estimate errs high — it charges
// the worker stacks a machine only takes at its first RunAsync).
func TestMailboxMachineMemoryMeasured(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are not meaningful under -race")
	}
	cfg := DefaultConfig(4096)
	before := heapInUse()
	m := NewMachine(cfg)
	after := heapInUse()
	runtime.KeepAlive(m)
	measured := int64(after) - int64(before)
	if est := MachineBytes(cfg); measured > est {
		t.Errorf("machine at p=4096 uses %d B of heap, MachineBytes estimates %d B; the estimate must not err low", measured, est)
	}
	if measured > 16<<20 {
		t.Errorf("machine at p=4096 uses %d B; want O(p) ≪ 16 MB", measured)
	}
}

// TestBlockingRunWLessThanPStress is the regression for the two
// scheduler defects blocking runs used to reach at w < p — a shard
// stranded behind a waiting body, and Close racing the hand-off that
// trailed a run: every body waits, as a coroutine on machines of 1, 2 and
// 4 workers for 64 PEs, and every machine is closed the moment its last
// run returns.
func TestBlockingRunWLessThanPStress(t *testing.T) {
	const p, rounds = 64, 4
	for _, w := range []int{1, 2, 4} {
		cfg := DefaultConfig(p)
		cfg.Workers = w
		m := NewMachine(cfg)
		for round := 0; round < rounds; round++ {
			sums := make([]int, p)
			m.MustRun(func(pe *PE) {
				const tag Tag = 41
				next, prev := (pe.Rank()+1)%p, (pe.Rank()-1+p)%p
				pe.Send(prev, tag, pe.Rank()+round, 1)
				rx, _ := pe.Recv(next, tag)
				// Recursive-doubling all-reduce of what the ring delivered.
				sum := rx.(int)
				for d := 1; d < p; d <<= 1 {
					rx, _ := pe.SendRecv(pe.Rank()^d, sum, 1, pe.Rank()^d, tag+Tag(d))
					sum += rx.(int)
				}
				sums[pe.Rank()] = sum
			})
			want := p*(p-1)/2 + p*round
			for r, got := range sums {
				if got != want {
					t.Fatalf("w=%d round %d: PE %d reduced %d, want %d", w, round, r, got, want)
				}
			}
		}
		m.Close()
	}
}
