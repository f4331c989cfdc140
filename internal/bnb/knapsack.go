package bnb

import (
	"cmp"
	"slices"

	"commtopk/internal/xrand"
)

// Knapsack is a 0/1 knapsack instance posed as a minimization problem for
// the branch-and-bound driver (we minimize the negated value). The bound
// is the classical fractional (greedy) relaxation, which is admissible.
type Knapsack struct {
	values   []int64 // sorted by density (value/weight) descending
	weights  []int64
	capacity int64
}

// KNode is a partial assignment: items before Level are decided.
type KNode struct {
	Level  int
	Value  int64
	Weight int64
}

// NewKnapsack builds an instance; items are re-sorted by density
// internally (the order the greedy bound needs).
func NewKnapsack(values, weights []int64, capacity int64) *Knapsack {
	if len(values) != len(weights) {
		panic("bnb: values/weights length mismatch")
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		// density comparison without division: v_a*w_b > v_b*w_a
		return cmp.Compare(values[b]*weights[a], values[a]*weights[b])
	})
	k := &Knapsack{capacity: capacity}
	for _, i := range idx {
		k.values = append(k.values, values[i])
		k.weights = append(k.weights, weights[i])
	}
	return k
}

// RandomKnapsack generates a reproducible instance with n items whose
// weights and values are weakly correlated.
func RandomKnapsack(seed int64, n int, maxWeight int64) *Knapsack {
	rng := xrand.New(seed)
	values := make([]int64, n)
	weights := make([]int64, n)
	var total int64
	for i := 0; i < n; i++ {
		weights[i] = 1 + rng.Int63n(maxWeight)
		values[i] = weights[i] + rng.Int63n(maxWeight/2+1) // correlated
		total += weights[i]
	}
	return NewKnapsack(values, weights, total/2)
}

// StronglyCorrelatedKnapsack generates the classical hard family for
// fractional-bound branch-and-bound: value_i = weight_i + bump, capacity
// half the total weight. Expansion counts grow quickly with n, making
// these the right instances for exercising the parallel search.
func StronglyCorrelatedKnapsack(seed int64, n int, maxWeight, bump int64) *Knapsack {
	rng := xrand.New(seed)
	values := make([]int64, n)
	weights := make([]int64, n)
	var total int64
	for i := 0; i < n; i++ {
		weights[i] = 1 + rng.Int63n(maxWeight)
		values[i] = weights[i] + bump
		total += weights[i]
	}
	return NewKnapsack(values, weights, total/2)
}

// NumItems returns the instance size.
func (k *Knapsack) NumItems() int { return len(k.values) }

// Root implements Problem.
func (k *Knapsack) Root() KNode { return KNode{} }

// Expand implements Problem: branch on including/excluding item Level.
func (k *Knapsack) Expand(n KNode) []KNode {
	if n.Level >= len(k.values) {
		return nil
	}
	out := make([]KNode, 0, 2)
	// Exclude.
	out = append(out, KNode{Level: n.Level + 1, Value: n.Value, Weight: n.Weight})
	// Include, if it fits.
	if w := n.Weight + k.weights[n.Level]; w <= k.capacity {
		out = append(out, KNode{Level: n.Level + 1, Value: n.Value + k.values[n.Level], Weight: w})
	}
	return out
}

// Solution implements Problem: a node is terminal once all items are
// decided; its objective is the negated packed value.
func (k *Knapsack) Solution(n KNode) (float64, bool) {
	if n.Level >= len(k.values) {
		return -float64(n.Value), true
	}
	return 0, false
}

// Bound implements Problem: the fractional-relaxation lower bound on the
// negated value (take remaining items greedily by density, last one
// fractionally).
func (k *Knapsack) Bound(n KNode) float64 {
	value := float64(n.Value)
	room := k.capacity - n.Weight
	for i := n.Level; i < len(k.values) && room > 0; i++ {
		if k.weights[i] <= room {
			value += float64(k.values[i])
			room -= k.weights[i]
		} else {
			value += float64(k.values[i]) * float64(room) / float64(k.weights[i])
			room = 0
		}
	}
	return -value
}

// OptimalByDP computes the exact optimum by dynamic programming over the
// capacity — the ground truth for tests; O(n·capacity).
func (k *Knapsack) OptimalByDP() int64 {
	dp := make([]int64, k.capacity+1)
	for i := range k.values {
		w, v := k.weights[i], k.values[i]
		for c := k.capacity; c >= w; c-- {
			if cand := dp[c-w] + v; cand > dp[c] {
				dp[c] = cand
			}
		}
	}
	return dp[k.capacity]
}
