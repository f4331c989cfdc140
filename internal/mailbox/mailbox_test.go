package mailbox

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPerSenderFIFO(t *testing.T) {
	b := New()
	// Two interleaved senders; per-sender order must survive demux.
	for i := 0; i < 3; i++ {
		b.Put(Msg{Src: 1, Tag: uint64(10 + i)})
		b.Put(Msg{Src: 2, Tag: uint64(20 + i)})
	}
	for i := 0; i < 3; i++ {
		m, ok := b.TryTake(2)
		if !ok || m.Tag != uint64(20+i) {
			t.Fatalf("from 2 step %d: got %+v ok=%v", i, m, ok)
		}
	}
	for i := 0; i < 3; i++ {
		m, ok := b.TryTake(1)
		if !ok || m.Tag != uint64(10+i) {
			t.Fatalf("from 1 step %d: got %+v ok=%v", i, m, ok)
		}
	}
	if _, ok := b.TryTake(1); ok {
		t.Fatal("box should be empty")
	}
}

func TestResetDrains(t *testing.T) {
	b := New()
	for i := 0; i < 5; i++ {
		b.Put(Msg{Src: i, Data: make([]byte, 8)})
	}
	if b.Pending() != 5 {
		t.Fatalf("Pending = %d", b.Pending())
	}
	b.Reset()
	if b.Pending() != 0 {
		t.Fatalf("Pending after Reset = %d", b.Pending())
	}
}

// takeWaiting takes the next message for key the way a suspended PE body
// does: TryTakeKey, and while nothing is queued, arm the box and wait for
// its notify on wake (which SetNotify must feed).
func takeWaiting(b *Box, key uint64, wake <-chan struct{}) Msg {
	for {
		if m, ok := b.TryTakeKey(key); ok {
			return m
		}
		if b.ArmKey(key) {
			<-wake
		}
	}
}

// notifyChan installs a notify callback on b that signals the returned
// channel (the box fires at most once per arm).
func notifyChan(b *Box) <-chan struct{} {
	wake := make(chan struct{}, 1)
	b.SetNotify(0, func(int) { wake <- struct{}{} })
	return wake
}

// TestConcurrentSenders is the -race stress: many producers, one
// consumer, per-sender sequence numbers must arrive in order.
func TestConcurrentSenders(t *testing.T) {
	const senders, msgs = 8, 200
	b := New()
	wake := notifyChan(b)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				b.Put(Msg{Src: s, Tag: uint64(i)})
			}
		}(s)
	}
	got := make([]int, senders)
	for n := 0; n < senders*msgs; n++ {
		// Round-robin across senders exercises both stash and arm paths.
		src := n % senders
		m := takeWaiting(b, Key(src, 0), wake)
		if int(m.Tag) != got[src] {
			t.Fatalf("sender %d: got seq %d, want %d", src, m.Tag, got[src])
		}
		got[src]++
	}
	wg.Wait()
}

func TestSchedRunAllRanks(t *testing.T) {
	for _, tc := range []struct{ p, w int }{{16, 16}, {16, 4}, {16, 1}, {5, 3}, {1, 8}} {
		sc := NewSched(tc.p, tc.w)
		hits := make([]atomic.Int32, tc.p)
		for round := 0; round < 3; round++ {
			sc.Run(func(rank int) bool { hits[rank].Add(1); return true })
		}
		for r := range hits {
			if got := hits[r].Load(); got != 3 {
				t.Errorf("p=%d w=%d: rank %d ran %d times, want 3", tc.p, tc.w, r, got)
			}
		}
		sc.Close()
	}
}

func TestSchedWorkersClamped(t *testing.T) {
	if got := NewSched(4, 64).Workers(); got != 4 {
		t.Errorf("w clamped to %d, want 4", got)
	}
	if got := NewSched(64, 0).Workers(); got != 1 {
		t.Errorf("w clamped to %d, want 1", got)
	}
}

func TestSchedCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := NewSched(256, 4)
	sc.Run(func(rank int) bool { return true })
	sc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines not released: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestArmFiresNotifyOnPut pins the Arm contract: a queued message makes
// Arm refuse (consumer proceeds synchronously); otherwise the next Put
// from the armed sender fires notify exactly once, and traffic from other
// senders does not.
func TestArmFiresNotifyOnPut(t *testing.T) {
	b := New()
	var fired atomic.Int32
	b.SetNotify(7, func(rank int) {
		if rank != 7 {
			t.Errorf("notify rank = %d, want 7", rank)
		}
		fired.Add(1)
	})
	b.Put(Msg{Src: 2})
	if b.Arm(2) {
		t.Fatal("Arm armed despite a queued message from the sender")
	}
	if !b.Arm(3) {
		t.Fatal("Arm refused on an empty sender")
	}
	b.Put(Msg{Src: 2}) // unrelated sender: no notify
	if got := fired.Load(); got != 0 {
		t.Fatalf("unrelated Put fired notify %d times", got)
	}
	b.Put(Msg{Src: 3})
	if got := fired.Load(); got != 1 {
		t.Fatalf("notify fired %d times, want 1", got)
	}
	b.Put(Msg{Src: 3}) // box no longer armed
	if got := fired.Load(); got != 1 {
		t.Fatalf("disarmed box fired notify again (%d)", got)
	}
}

// TestArmInterruptedFiresNotify pins the abort path: interrupting an
// armed box fires notify (so a suspended body gets rescheduled to observe
// the abort), and Arm on an interrupted box refuses.
func TestArmInterruptedFiresNotify(t *testing.T) {
	b := New()
	var fired atomic.Int32
	b.SetNotify(0, func(int) { fired.Add(1) })
	if !b.Arm(1) {
		t.Fatal("Arm refused")
	}
	b.Interrupt()
	if got := fired.Load(); got != 1 {
		t.Fatalf("Interrupt fired notify %d times, want 1", got)
	}
	if b.Arm(1) {
		t.Fatal("Arm armed an interrupted box")
	}
	b.Reset()
	if !b.Arm(1) {
		t.Fatal("Arm refused after Reset")
	}
	// After Reset the box delivers again: the armed Put fires, the take
	// finds it.
	b.Put(Msg{Src: 1, Tag: 5})
	if got := fired.Load(); got != 2 {
		t.Fatalf("Put after Reset fired notify %d times in total, want 2", got)
	}
	if m, ok := b.TryTake(1); !ok || m.Tag != 5 {
		t.Fatalf("take after Reset: got %+v ok=%v", m, ok)
	}
}

// TestSchedContinuationSuspendResume drives the full suspend/resume
// protocol at the scheduler layer: every body (but the last rank) arms
// its box and returns false, the cascade of Puts resumes them through
// Ready, and no goroutine beyond the w workers ever appears.
func TestSchedContinuationSuspendResume(t *testing.T) {
	const p, w = 512, 3
	boxes := make([]*Box, p)
	sc := NewSched(p, w)
	defer sc.Close()
	for i := range boxes {
		boxes[i] = New()
		boxes[i].SetNotify(i, sc.Ready)
	}
	before := runtime.NumGoroutine()
	var maxGor atomic.Int32
	state := make([]int, p) // 0 = not started, 1 = suspended, 2 = done
	for round := 0; round < 3; round++ {
		for i := range state {
			state[i] = 0
		}
		sc.Run(func(rank int) bool {
			if g := int32(runtime.NumGoroutine()); g > maxGor.Load() {
				maxGor.Store(g)
			}
			if rank < p-1 && state[rank] == 0 {
				// Wait for my successor's token as a continuation: arm and
				// suspend unless it already arrived.
				state[rank] = 1
				if boxes[rank].Arm(rank + 1) {
					return false
				}
			}
			if rank < p-1 {
				if m, ok := boxes[rank].TryTake(rank + 1); !ok || m.Src != rank+1 {
					t.Errorf("rank %d: resumed without its message (ok=%v)", rank, ok)
				}
			}
			if rank > 0 {
				boxes[rank-1].Put(Msg{Src: rank})
			}
			state[rank] = 2
			return true
		})
		for i, s := range state {
			if s != 2 {
				t.Fatalf("round %d: rank %d finished in state %d", round, i, s)
			}
		}
	}
	// The cascade suspends p−1 bodies; none of them may hold a goroutine.
	if got := int(maxGor.Load()); got > before+w+2 {
		t.Errorf("mid-run goroutines reached %d (baseline %d, w=%d); continuations should not spawn", got, before, w)
	}
}

// TestSchedContinuationStress is the -race stress for suspend/resume at
// w < p: pseudo-random partner shifts, bodies suspending as continuations
// and resuming on arbitrary workers, repeated across runs.
func TestSchedContinuationStress(t *testing.T) {
	const p, w, rounds = 96, 3, 20
	boxes := make([]*Box, p)
	sc := NewSched(p, w)
	defer sc.Close()
	for i := range boxes {
		boxes[i] = New()
		boxes[i].SetNotify(i, sc.Ready)
	}
	sent := make([]bool, p)
	for round := 0; round < rounds; round++ {
		shift := 1 + round%(p-1)
		for i := range sent {
			sent[i] = false
		}
		sc.Run(func(rank int) bool {
			src := (rank - shift + p) % p
			if !sent[rank] {
				sent[rank] = true
				boxes[(rank+shift)%p].Put(Msg{Src: rank, Tag: uint64(round)})
				if boxes[rank].Arm(src) {
					return false
				}
			}
			m, ok := boxes[rank].TryTake(src)
			if !ok || m.Tag != uint64(round) {
				t.Errorf("round %d rank %d: got %+v ok=%v", round, rank, m, ok)
			}
			return true
		})
	}
}

// TestSchedContinuationResumeReuse is the resume-path reuse stress: a
// rank suspends (Arm → notify → Ready → re-exec) several times within
// one Run and the whole cycle repeats across Run boundaries on the same
// scheduler — the lifecycle under which comm's pooled stepper state is
// recycled. Each suspension must deliver exactly the awaited message,
// and a rank resumed mid-batch must be able to re-arm immediately.
func TestSchedContinuationResumeReuse(t *testing.T) {
	const p, w, rounds, hops = 64, 3, 8, 4
	boxes := make([]*Box, p)
	sc := NewSched(p, w)
	defer sc.Close()
	for i := range boxes {
		boxes[i] = New()
		boxes[i].SetNotify(i, sc.Ready)
	}
	hop := make([]int, p)
	sent := make([][hops]bool, p)
	var delivered atomic.Int64
	for round := 0; round < rounds; round++ {
		for i := range hop {
			hop[i] = 0
			sent[i] = [hops]bool{}
		}
		round := round
		sc.Run(func(rank int) bool {
			for hop[rank] < hops {
				h := hop[rank]
				// Per-hop shifted ring: each hop pairs every rank with a
				// different partner, so one body arms and resumes several
				// times within one Run.
				shift := 1 + (round+h)%(p-1)
				if !sent[rank][h] {
					sent[rank][h] = true
					boxes[(rank+shift)%p].Put(Msg{Src: rank, Tag: uint64(round*hops + h)})
				}
				src := (rank - shift + p) % p
				m, ok := boxes[rank].TryTake(src)
				if !ok {
					if boxes[rank].Arm(src) {
						return false // suspended; Ready re-runs this rank
					}
					continue
				}
				if int(m.Tag) != round*hops+h {
					t.Errorf("round %d hop %d rank %d: tag %d", round, h, rank, m.Tag)
				}
				delivered.Add(1)
				hop[rank]++
			}
			return true
		})
	}
	if got, want := delivered.Load(), int64(rounds*p*hops); got != want {
		t.Fatalf("delivered %d messages, want %d", got, want)
	}
}
