// Package commbuf provides typed, sync.Pool-backed slice buffers for the
// communication hot paths. The collectives in internal/coll move a message
// buffer through a strict ownership hand-off: the sender obtains a buffer
// with Get, fills it, and sends the *[]T pointer (a pointer stored in an
// interface does not allocate, unlike a slice header); the receiver reads
// or combines the contents and returns the buffer with Put. Because
// exactly one PE owns a buffer at any time, recycling is race-free even
// though the pools are shared process-wide.
//
// Buffers are pooled per element type and power-of-two capacity class
// (see Pool). The per-type pools are resolved
// once per call via a lock-free registry keyed by reflect.Type; callers on
// a very hot path can hoist the For[T]() lookup out of their loop.
package commbuf

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
)

// Pool is a free list of []T buffers backed by one sync.Pool per
// power-of-two capacity class. The zero value is ready to use. Buffers
// handed out by Get have unspecified contents.
//
// Put files a buffer under ⌊log₂ cap⌋ and Get(n) takes from ⌈log₂ n⌉ —
// or, when that class is empty, from the smallest larger class that holds
// a buffer — so a buffer Get sees is always large enough: a small request
// never makes a large one allocate by taking its buffer and letting the
// buffer die. A buffer grown by append past its class (an all-gather's
// arena, a shard filled by the router) is filed under its new class, and
// the next request of the old size finds it there.
type Pool[T any] struct {
	classes [bits.UintSize]sync.Pool
	// filled has bit k set when class k may hold a buffer: Put sets it, a
	// Get that finds class k empty while looking above its own class
	// clears it. It only steers that search; a stale bit costs one empty
	// lookup, a bit cleared under a racing Put one missed reuse.
	filled atomic.Uint64
}

// minClass is the smallest class Get serves: grow never allocates below
// 2^minClass elements.
const minClass = 3

// Get returns a buffer of length n (capacity may exceed n). The caller
// owns the buffer until it calls Put or hands ownership to another owner.
func (pl *Pool[T]) Get(n int) *[]T {
	c := grow(n)
	k := bits.Len(uint(c - 1))
	if k < len(pl.classes) {
		if v := pl.classes[k].Get(); v != nil {
			b := v.(*[]T)
			*b = (*b)[:n]
			return b
		}
		for up := pl.filled.Load() >> (k + 1) << (k + 1); up != 0; up &= up - 1 {
			j := bits.TrailingZeros64(up)
			if v := pl.classes[j].Get(); v != nil {
				b := v.(*[]T)
				*b = (*b)[:n]
				return b
			}
			pl.filled.And(^(uint64(1) << j))
		}
	}
	b := make([]T, n, c)
	return &b
}

// GetCap returns an empty buffer (length 0) with capacity at least c, for
// append-style filling. Pair with Put like Get.
func (pl *Pool[T]) GetCap(c int) *[]T {
	b := pl.Get(c)
	*b = (*b)[:0]
	return b
}

// Put recycles a buffer obtained from Get/GetCap (or any slice the caller
// owns outright). The caller must not touch the slice afterwards. nil is
// ignored so Put composes with conditional ownership transfers, and so is
// a buffer below the smallest class, which no Get would take.
func (pl *Pool[T]) Put(b *[]T) {
	if b == nil {
		return
	}
	k := bits.Len(uint(cap(*b))) - 1
	if k < minClass {
		return
	}
	if bit := uint64(1) << k; pl.filled.Load()&bit == 0 {
		pl.filled.Or(bit)
	}
	pl.classes[k].Put(b)
}

// grow rounds a requested length up to a power of two of at least
// 2^minClass, the capacity classes of Pool.
func grow(n int) int {
	if n <= 1<<minClass {
		return 1 << minClass
	}
	// Next power of two ≥ n (caps the worst-case overshoot at 2×).
	c := 1 << bits.Len(uint(n-1))
	if c < n { // overflow paranoia; fall back to the exact size
		return n
	}
	return c
}

// pools maps reflect.Type → *Pool[T] (stored as any).
var pools sync.Map

// For returns the process-wide pool for element type T.
func For[T any]() *Pool[T] {
	t := reflect.TypeFor[T]()
	if v, ok := pools.Load(t); ok {
		return v.(*Pool[T])
	}
	v, _ := pools.LoadOrStore(t, &Pool[T]{})
	return v.(*Pool[T])
}

// Get is shorthand for For[T]().Get(n).
func Get[T any](n int) *[]T { return For[T]().Get(n) }

// GetCap is shorthand for For[T]().GetCap(c).
func GetCap[T any](c int) *[]T { return For[T]().GetCap(c) }

// Put is shorthand for For[T]().Put(b).
func Put[T any](b *[]T) { For[T]().Put(b) }

// Resize returns s with length n, reusing s's backing array when the
// capacity suffices and allocating (amortized, geometric) otherwise. The
// contents beyond the copied prefix are unspecified. It is the allocation
// primitive for caller-provided destination buffers (the *Into collectives).
func Resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]T, n, grow(n))
	copy(out, s[:len(s)])
	return out
}
