package commbuf

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestGetAlternatingSizesAllocatesNothing: once one cycle has pooled a
// small and a large buffer of one element type, Get/Put cycles that hold
// both sizes at once allocate nothing — a Get never takes a pooled buffer
// that is too small for it and lets it die. Each cycle asks for the large
// buffer first and puts the small one back first, the order in which a
// shard-sized request meets batch copies recycled on its worker. The
// collector is off and the test runs on one P, so neither a GC cycle nor
// a move between per-P pools changes what a Get finds; mallocs are read
// exactly, not averaged.
func TestGetAlternatingSizesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var pl Pool[int64]
	get := func(n int) *[]int64 {
		b := pl.Get(n)
		if len(*b) != n {
			t.Fatalf("Get(%d) returned length %d", n, len(*b))
		}
		(*b)[n-1] = 1
		return b
	}
	cycle := func(small, large int) {
		l := get(large)
		s := get(small)
		pl.Put(s)
		pl.Put(l)
	}
	cycle(5, 3000) // warm-up: one buffer in each class
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		cycle(5+i%4, 3000+i%97)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("100 alternating Get/Put cycles allocated %d times, want 0", n)
	}
}

// TestGetCapacityClasses pins the class arithmetic at the edges: every
// buffer Get returns, fresh or pooled, holds at least the request.
func TestGetCapacityClasses(t *testing.T) {
	var pl Pool[byte]
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 1000, 1 << 20} {
		b := pl.Get(n)
		if len(*b) != n || cap(*b) < n {
			t.Errorf("Get(%d): len %d cap %d", n, len(*b), cap(*b))
		}
		pl.Put(b)
	}
	for _, n := range []int{1 << 20, 17, 9, 8, 0} {
		if b := pl.GetCap(n); len(*b) != 0 || cap(*b) < n {
			t.Errorf("GetCap(%d): len %d cap %d", n, len(*b), cap(*b))
		}
	}
}
