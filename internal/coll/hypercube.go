package coll

import (
	"commtopk/internal/comm"
)

// Routed is an item travelling through the hypercube all-to-all: Dest is
// the final destination rank, Payload the application data.
type Routed[T any] struct {
	Dest    int
	Payload T
}

// AllToAllCombine routes items to their destination PEs through a
// hypercube (indirect delivery, Section 7.1: "the elements are communicated
// using indirect delivery to maintain logarithmic latency ... incoming
// sample counts are merged in each step"). After every exchange step the
// combine hook is applied to the held buffer, letting the application
// re-aggregate (e.g. sum counts with equal keys) so message sizes stay
// bounded. combine may be nil for plain routing.
//
// O(log p) startups per PE. Non-power-of-two p is handled by folding the
// top p−r ranks onto their partners before routing and unfolding at the
// end (two extra exchanges). The result is caller-owned (for p = 1 it
// aliases items).
func AllToAllCombine[T any](pe *comm.PE, items []Routed[T], combine func([]Routed[T]) []Routed[T]) []Routed[T] {
	return routeCombine(pe, items, routedDest[T], combine)
}

// routeCombine is the route engine of async_route.go (RouteCombineStep's
// schedule) driven with blocking waits; the result is a caller-owned copy
// of the engine's held batch (nil for an empty result), or items itself
// for p = 1.
func routeCombine[T any](pe *comm.PE, items []T, dest func(T) int, combine func([]T) []T) []T {
	st := newRouteStep(pe, items, dest, combine)
	comm.RunSteps(pe, st)
	out := st.hold
	if pe.P() > 1 {
		out = append([]T(nil), st.hold...)
	}
	st.release(pe)
	return out
}
