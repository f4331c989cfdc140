package mailbox

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestKeyedFIFOAcrossContexts pins the demux contract of the serving
// layer: messages from one sender under different contexts are
// independent streams, each in send order, and receiving one context's
// stream never disturbs (or rescans past) the other's.
func TestKeyedFIFOAcrossContexts(t *testing.T) {
	b := New()
	for i := 0; i < 3; i++ {
		b.Put(Msg{Src: 1, Ctx: 7, Tag: uint64(70 + i)})
		b.Put(Msg{Src: 1, Ctx: 9, Tag: uint64(90 + i)})
		b.Put(Msg{Src: 2, Ctx: 7, Tag: uint64(170 + i)})
	}
	for i := 0; i < 3; i++ {
		m, ok := b.TryTakeKey(Key(1, 9))
		if !ok || m.Tag != uint64(90+i) || m.Ctx != 9 {
			t.Fatalf("ctx 9 step %d: got %+v ok=%v", i, m, ok)
		}
	}
	for i := 0; i < 3; i++ {
		m, ok := b.TryTakeKey(Key(1, 7))
		if !ok || m.Tag != uint64(70+i) {
			t.Fatalf("src 1 ctx 7 step %d: got %+v ok=%v", i, m, ok)
		}
		m, ok = b.TryTakeKey(Key(2, 7))
		if !ok || m.Tag != uint64(170+i) {
			t.Fatalf("src 2 ctx 7 step %d: got %+v ok=%v", i, m, ok)
		}
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after draining all streams", b.Pending())
	}
}

// TestCtxZeroKeyCompat pins Key's compat contract: context 0 keys are
// the bare rank, so pre-context call sites and keyed ones interoperate
// on the same box.
func TestCtxZeroKeyCompat(t *testing.T) {
	if Key(5, 0) != 5 {
		t.Fatalf("Key(5,0) = %d", Key(5, 0))
	}
	if KeySrc(Key(3, 11)) != 3 || KeyCtx(Key(3, 11)) != 11 {
		t.Fatalf("round trip failed: %d %d", KeySrc(Key(3, 11)), KeyCtx(Key(3, 11)))
	}
	b := New()
	b.Put(Msg{Src: 4}) // Ctx zero value
	if _, ok := b.TryTakeKey(Key(4, 0)); !ok {
		t.Fatal("keyed take missed a ctx-0 Put")
	}
}

// TestArmKeysFireOnce pins the multi-key arm contract: arming on several
// keys refuses if any is already queued; otherwise the first matching
// Put disarms all keys and fires notify exactly once, and non-matching
// traffic never fires.
func TestArmKeysFireOnce(t *testing.T) {
	b := New()
	var fired atomic.Int32
	b.SetNotify(3, func(rank int) {
		if rank != 3 {
			t.Errorf("notify rank = %d, want 3", rank)
		}
		fired.Add(1)
	})
	keys := []uint64{Key(1, 5), Key(2, 6)}
	b.Put(Msg{Src: 2, Ctx: 6})
	if b.ArmKeys(keys) {
		t.Fatal("ArmKeys armed despite a queued match")
	}
	if _, ok := b.TryTakeKey(Key(2, 6)); !ok {
		t.Fatal("queued match lost")
	}
	if !b.ArmKeys(keys) {
		t.Fatal("ArmKeys refused on an empty box")
	}
	b.Put(Msg{Src: 1, Ctx: 4}) // same src, wrong ctx: no fire
	b.Put(Msg{Src: 5, Ctx: 5}) // wrong src: no fire
	if got := fired.Load(); got != 0 {
		t.Fatalf("non-matching Puts fired notify %d times", got)
	}
	b.Put(Msg{Src: 2, Ctx: 6})
	if got := fired.Load(); got != 1 {
		t.Fatalf("notify fired %d times, want 1", got)
	}
	b.Put(Msg{Src: 1, Ctx: 5}) // disarmed: no second fire
	if got := fired.Load(); got != 1 {
		t.Fatalf("disarmed box fired again (%d)", got)
	}
}

// TestKeyedConcurrentSenders is the -race stress for the demux layer:
// many producers over distinct (src, ctx) streams, one consumer reading
// the streams round-robin; per-key sequence numbers must arrive in
// order even as intake constantly re-demuxes around the reader.
func TestKeyedConcurrentSenders(t *testing.T) {
	const senders, ctxs, msgs = 4, 3, 120
	b := New()
	wake := notifyChan(b)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		for c := 0; c < ctxs; c++ {
			wg.Add(1)
			go func(s int, c uint32) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					b.Put(Msg{Src: s, Ctx: c, Tag: uint64(i)})
				}
			}(s, uint32(c))
		}
	}
	got := make(map[uint64]int)
	for n := 0; n < senders*ctxs*msgs; n++ {
		key := Key(n%senders, uint32((n/senders)%ctxs))
		m := takeWaiting(b, key, wake)
		if int(m.Tag) != got[key] {
			t.Fatalf("key %d: got seq %d, want %d", key, m.Tag, got[key])
		}
		got[key]++
	}
	wg.Wait()
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d", b.Pending())
	}
}

// TestShardedReadyQueueResumes drives the continuation suspend/resume
// protocol on the sharded ready queues and checks every rank resumes
// exactly once per suspension — including resumes pushed from producer
// goroutines outside any worker, the serving layer's doorbell shape.
func TestShardedReadyQueueResumes(t *testing.T) {
	const p, w, rounds = 96, 3, 10
	boxes := make([]*Box, p)
	sc := NewSched(p, w)
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
	sc.Close()
}

// TestShardedReadyStealing pins the work-stealing pop: ranks resumed in
// a shard whose own worker is busy or parked must be picked up by
// whichever worker wakes — the fairness property the per-shard split
// must not lose.
func TestShardedReadyStealing(t *testing.T) {
	const p, w = 8, 4 // shard size 2: rank 0,1 → shard 0, …
	boxes := make([]*Box, p)
	sc := NewSched(p, w)
	defer sc.Close()
	for i := range boxes {
		boxes[i] = New()
		boxes[i].SetNotify(i, sc.Ready)
	}
	var suspended [p]bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc.Run(func(rank int) bool {
			if !suspended[rank] {
				suspended[rank] = true
				if boxes[rank].Arm(p) { // external source: only the pusher below delivers
					return false
				}
			}
			if _, ok := boxes[rank].TryTake(p); !ok {
				t.Errorf("rank %d resumed without its message", rank)
			}
			return true
		})
	}()
	// Resume every rank from outside the scheduler, in reverse shard
	// order, once all bodies are suspended.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < p; i++ {
		for !armedOn(boxes[i]) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for i := p - 1; i >= 0; i-- {
		boxes[i].Put(Msg{Src: p})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sharded ready queues stranded a resumed rank")
	}
}

// armedOn reports whether b is armed (test-only peek).
func armedOn(b *Box) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.armed) > 0
}
