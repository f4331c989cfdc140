package mailbox

import "testing"

// FuzzBox drives one Box with a byte-coded sequence of Put, TryTakeKey,
// ArmKey, ArmKeys, Interrupt and Reset against a map[key][]Msg model and
// checks the whole contract: per-key FIFO, nothing lost or duplicated, an
// armed box fires its notify exactly once (on the first matching Put or on
// Interrupt) and an unarmed one never. The sequence respects the
// consumer's side of the contract — nothing is taken or re-armed while the
// box is armed, since an armed consumer is suspended. Each op is two
// bytes: an opcode and an operand that selects the key (4 senders × 3
// contexts).
func FuzzBox(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 1, 1})             // two puts on one key, two takes
	f.Add([]byte{2, 5, 0, 9, 0, 5, 1, 5, 1, 9})       // arm, unrelated put, matching put
	f.Add([]byte{3, 3, 4, 0, 5, 0, 0, 2, 1, 2})       // multi-arm, interrupt, reset
	f.Add([]byte{0, 0, 0, 4, 0, 8, 1, 0, 1, 4, 1, 8}) // three contexts of one sender
	f.Fuzz(func(t *testing.T, prog []byte) {
		b := New()
		fired := 0
		b.SetNotify(7, func(rank int) {
			if rank != 7 {
				t.Fatalf("notify for rank %d, want 7", rank)
			}
			fired++
		})
		model := map[uint64][]Msg{}
		var armed []uint64
		interrupted := false
		keyOf := func(x byte) uint64 { return Key(int(x%4), uint32(x/4%3)) }
		var seq uint64
		expectFired := func(op string, want int) {
			t.Helper()
			if fired != want {
				t.Fatalf("%s: notify fired %d times, want %d", op, fired, want)
			}
			fired = 0
		}
		took := func(op string, key uint64, got Msg, ok bool) {
			t.Helper()
			q := model[key]
			if len(q) == 0 {
				if ok {
					t.Fatalf("%s(%#x): got %+v from an empty stream", op, key, got)
				}
				return
			}
			if !ok || got != q[0] {
				t.Fatalf("%s(%#x): got %+v ok=%v, want %+v", op, key, got, ok, q[0])
			}
			model[key] = q[1:]
		}
		for i := 0; i+1 < len(prog); i += 2 {
			key := keyOf(prog[i+1])
			switch op := prog[i] % 6; {
			case op == 0: // Put
				seq++
				m := Msg{Src: KeySrc(key), Ctx: KeyCtx(key), Tag: seq, Words: int64(i)}
				b.Put(m)
				model[key] = append(model[key], m)
				if keysContain(armed, key) {
					armed = nil
					expectFired("Put on an armed key", 1)
				} else {
					expectFired("Put", 0)
				}
			case armed != nil && op != 4 && op != 5:
				// An armed consumer is suspended: it neither takes nor re-arms.
			case op == 1:
				got, ok := b.TryTakeKey(key)
				took("TryTakeKey", key, got, ok)
			case op == 2:
				want := !interrupted && len(model[key]) == 0
				if got := b.ArmKey(key); got != want {
					t.Fatalf("ArmKey(%#x) = %v, want %v", key, got, want)
				}
				if want {
					armed = []uint64{key}
				}
			case op == 3:
				keys := []uint64{key, keyOf(prog[i+1] + 5), keyOf(prog[i+1] + 7)}
				want := !interrupted
				for _, k := range keys {
					want = want && len(model[k]) == 0
				}
				if got := b.ArmKeys(keys); got != want {
					t.Fatalf("ArmKeys(%#x) = %v, want %v", keys, got, want)
				}
				if want {
					armed = keys
				}
			case op == 4:
				b.Interrupt()
				interrupted = true
				if armed != nil {
					armed = nil
					expectFired("Interrupt of an armed box", 1)
				}
				if !b.Interrupted() {
					t.Fatal("Interrupted() false after Interrupt")
				}
			case op == 5:
				b.Reset()
				clear(model)
				armed, interrupted = nil, false
			}
			expectFired("after op", 0)
		}
		if armed != nil {
			b.Interrupt() // release the arm so the drain below is in contract
			expectFired("final Interrupt", 1)
		}
		total := 0
		for _, q := range model {
			total += len(q)
		}
		if got := b.Pending(); got != total {
			t.Fatalf("Pending = %d, model holds %d", got, total)
		}
		for key, q := range model {
			for range q {
				got, ok := b.TryTakeKey(key)
				took("drain", key, got, ok)
			}
			if got, ok := b.TryTakeKey(key); ok {
				t.Fatalf("drain(%#x): extra message %+v", key, got)
			}
		}
		if b.Pending() != 0 {
			t.Fatalf("%d messages left after draining every key", b.Pending())
		}
	})
}
