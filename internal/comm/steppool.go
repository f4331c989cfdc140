package comm

import "reflect"

// Per-PE pooled stepper state.
//
// A continuation body exists as data between suspensions: its phase
// counters, posted handle, captured round state, and the Seq that chains
// its collectives. Allocating that state per operation costs ~1.2 KB per
// PE per collectives op — irrelevant at small p, but at p = 131072 it is
// ~150 MB of garbage per op, and the GC drag eats most of what
// continuation scheduling saves over a blocking body's stack per PE. The freelists
// here make steady-state RunAsync dispatch allocation-free: a stepper
// factory pops its state struct from the PE's typed
// freelist, fully reinitializes it, and the stepper pushes it back when
// its protocol completes.
//
// The freelists are PE-local (no synchronization — a PE's body runs on
// one goroutine at a time) and keyed by the
// state's concrete type, so every stepper form shares one list per PE
// regardless of call site. Objects in the list are inert: Get hands out
// spares in LIFO order and the factory must overwrite every field
// (`*s = stepT{...}` resets stale state wholesale). Steppers released on
// completion must never be stepped again — comm.SeqP and Machine.RunAsync
// both guarantee a stepper that returned nil is not re-invoked.
//
// Abort unwinds (machine errors) drop in-flight state objects on the
// floor; they are collected by the GC rather than recycled, which keeps
// the abort path free of lifecycle bookkeeping.

// stepFree is one typed freelist.
type stepFree[T any] struct{ free []*T }

// GetPooled pops a recycled *T from this PE's typed freelist, or
// allocates a fresh one. The returned object holds stale state from its
// previous use: the caller must reinitialize every field before use.
func GetPooled[T any](pe *PE) *T {
	t := reflect.TypeFor[T]()
	if v, ok := pe.pools[t]; ok {
		f := v.(*stepFree[T])
		if n := len(f.free); n > 0 {
			s := f.free[n-1]
			f.free[n-1] = nil
			f.free = f.free[:n-1]
			return s
		}
		return new(T)
	}
	if pe.pools == nil {
		pe.pools = make(map[reflect.Type]any)
	}
	pe.pools[t] = &stepFree[T]{}
	return new(T)
}

// PutPooled recycles a state object obtained from GetPooled. The caller
// must not touch it afterwards; clearing reference-holding fields before
// the Put (so the pool does not retain payloads) is the caller's job —
// the idiomatic release is `*s = stepT{}; PutPooled(pe, s)`.
func PutPooled[T any](pe *PE, s *T) {
	t := reflect.TypeFor[T]()
	if v, ok := pe.pools[t]; ok {
		f := v.(*stepFree[T])
		f.free = append(f.free, s)
	}
	// No list yet: the object did not come from GetPooled; drop it.
}

// singletonOf distinguishes singleton entries from freelist entries in
// the per-PE type-keyed store.
type singletonOf[T any] struct{ v T }

// GetSingleton returns this PE's singleton of type T, zero-initialized
// on first use and persistent for the machine's lifetime. It exists for
// state that is per-PE and per-type but not per-operation — canonically
// the cached operator func values of generic callers: a func literal (or
// an instantiated generic function) evaluated inside a generic function
// carries the type dictionary and heap-allocates every time it escapes,
// so zero-alloc call paths build such values once and reuse them from
// here.
func GetSingleton[T any](pe *PE) *T {
	t := reflect.TypeFor[singletonOf[T]]()
	if v, ok := pe.pools[t]; ok {
		return &v.(*singletonOf[T]).v
	}
	if pe.pools == nil {
		pe.pools = make(map[reflect.Type]any)
	}
	s := new(singletonOf[T])
	pe.pools[t] = s
	return &s.v
}
