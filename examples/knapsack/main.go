// Knapsack: distributed best-first branch-and-bound over the
// communication-efficient bulk-parallel priority queue — the Section 5
// application of the paper. Search nodes are inserted into the *local*
// queues for free; every iteration deletes a flexible batch of globally
// best nodes (deleteMin*), expands them where they live, and prunes
// against a shared incumbent.
//
//	go run ./examples/knapsack
package main

import (
	"fmt"

	"commtopk/internal/bnb"
	"commtopk/internal/comm"
)

func main() {
	const p = 8
	const items = 24

	// Strongly correlated items (value = weight + 100): the classical
	// hard family for fractional-bound B&B — thousands of node
	// expansions, so the parallel queue has real work to schedule.
	instance := bnb.StronglyCorrelatedKnapsack(1, items, 1000, 100)
	fmt.Printf("0/1 knapsack (strongly correlated), %d items, %d PEs\n", instance.NumItems(), p)

	// Sequential best-first reference (the paper's m in K = m + O(hp)).
	seqObj, _, _, seqExpanded := bnb.SolveSequential[bnb.KNode](instance)
	fmt.Printf("sequential best-first: value %.0f, %d nodes expanded\n", -seqObj, seqExpanded)

	m := comm.NewMachine(comm.DefaultConfig(p))
	var result bnb.Result[bnb.KNode]
	m.MustRun(func(pe *comm.PE) {
		res := bnb.Solve[bnb.KNode](pe, instance, 99)
		if pe.Rank() == 0 {
			result = res
		}
		if res.Found {
			fmt.Printf("optimal packing found by PE %d: value %.0f, weight %d\n",
				pe.Rank(), float64(res.Best.Value), res.Best.Weight)
		}
	})

	fmt.Printf("distributed B&B:      value %.0f, %d nodes expanded in %d deleteMin* rounds\n",
		-result.Objective, result.Expanded, result.Iterations)
	if -result.Objective != -seqObj {
		panic("distributed and sequential optima disagree")
	}
	overhead := float64(result.Expanded-seqExpanded) / float64(max(seqExpanded, 1)) * 100
	fmt.Printf("speculation overhead: %+.1f%% extra expansions (paper: K = m + O(hp))\n", overhead)
	s := m.Stats()
	fmt.Printf("communication: %d words/PE bottleneck — node insertions were free (local queues)\n",
		s.BottleneckWords())
}
