//go:build long

package experiments

import "testing"

const exploreScale = 100

// TestScheduleExplorationECSum gives agg.ECSum 10⁴ schedules of its own,
// as blocking bodies: its sampling once consumed an RNG in map-iteration
// order, and the flake that caused stayed documented as "known" long
// after the fix.
func TestScheduleExplorationECSum(t *testing.T) {
	for oi, op := range fuzzOps() {
		if op.name == "AggECSum" {
			exploreSeq(t, 16, fuzzSeq{ops: []int{oi}, prms: []int64{419}}, 1, 10000)
			return
		}
	}
	t.Fatal("no AggECSum op in the catalog")
}
