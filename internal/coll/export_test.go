package coll

import "commtopk/internal/comm"

// RouteCopy runs the hypercube router and returns a copy of this PE's
// routed batch, for the external golden test (golden_test.go).
func RouteCopy[T any](pe *comm.PE, items []T, dest func(T) int, combine func([]T) []T) []T {
	return routeCombine(pe, items, dest, combine)
}
