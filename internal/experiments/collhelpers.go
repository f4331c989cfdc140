package experiments

import (
	"commtopk/internal/coll"
	"commtopk/internal/comm"
)

// Small collective bodies used by CollectivesScaling.

func collBroadcast(pe *comm.PE) {
	coll.Broadcast(pe, 0, []int64{1, 2, 3, 4})
}

func collAllReduce(pe *comm.PE) {
	coll.AllReduce(pe, []int64{int64(pe.Rank())}, func(a, b int64) int64 { return a + b })
}

func collScan(pe *comm.PE) {
	coll.ExScanSum(pe, int64(pe.Rank()))
}

func collAllGather(pe *comm.PE) {
	coll.AllGatherConcat(pe, []int64{int64(pe.Rank())})
}

// collHyperA2A routes one 2-word item from every PE to every PE through
// the hypercube router.
func collHyperA2A(pe *comm.PE) {
	items := make([][2]int64, pe.P())
	for d := range items {
		items[d] = [2]int64{int64(d), int64(pe.Rank())}
	}
	comm.RunSteps(pe, coll.RouteCombineStep(pe, items, itemDest, nil, nil))
}

// itemDest is collHyperA2A's destination: the item's first word.
func itemDest(it [2]int64) int { return int(it[0]) }
