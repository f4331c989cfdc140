package serve

import (
	"cmp"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/sel"
)

// rankStride is the rank table's sampling stride in multiples of p: PE i
// contributes its sorted shard's keys at positions s−1, 2s−1, … with
// s = rankStride·p, so the table has about n/s rows and a window between
// two adjacent rows holds at most s keys per PE, s·p = 16p² globally.
// EXPERIMENTS.md has the sweep over {4, 16, 64} behind the constant.
const rankStride = 16

// rankTable is one PE's share of the resident rank table: rows are
// elements of the key set, ascending in the total order (key, PE rank,
// position in that PE's sorted shard), which breaks ties so that every
// row has its own rank, however many keys share its value. Row j's
// global rank is ranks[j] (identical on every PE), and this PE's sorted
// shard holds exactly its first pos[j] keys at or before row j, so the
// elements of global ranks (ranks[j−1], ranks[j]] are the union over PEs
// of shard[pos[j−1]:pos[j]].
type rankTable struct {
	ranks []int64
	pos   []int32
}

// tableRow is a row in transit during the build.
type tableRow[K cmp.Ordered] struct {
	key      K
	src, idx int32
}

func cmpRow[K cmp.Ordered](a, b tableRow[K]) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// buildRankTable is the blocking SPMD set-up of the rank table over this
// PE's sorted shard: every PE contributes every (rankStride·p)-th key,
// one all-gather and a local sort give every PE all rows in order, each
// PE counts its keys at or before every row (a binary search each), and
// one vector all-reduce sums the counts into exact global ranks.
// Shards shorter than the stride contribute no row; when all of them
// are, the table is empty. Neither the gathered rows nor the all-reduce
// buffer outlive the call.
func buildRankTable[K cmp.Ordered](pe *comm.PE, shard []K) rankTable {
	stride := rankStride * pe.P()
	me := int32(pe.Rank())
	var mine []tableRow[K]
	for i := stride - 1; i < len(shard); i += stride {
		mine = append(mine, tableRow[K]{key: shard[i], src: me, idx: int32(i)})
	}
	rows := coll.AllGatherConcat(pe, mine)
	slices.SortFunc(rows, cmpRow[K])
	t := rankTable{ranks: make([]int64, len(rows)), pos: make([]int32, len(rows))}
	for j, r := range rows {
		var c int
		switch {
		case me < r.src:
			c = sel.SliceSeq[K](shard).CountLE(r.key)
		case me > r.src:
			c = sel.SliceSeq[K](shard).CountLess(r.key)
		default:
			c = int(r.idx) + 1
		}
		t.pos[j], t.ranks[j] = int32(c), int64(c)
	}
	copy(t.ranks, coll.AllReduce(pe, t.ranks, addInt64))
	return t
}

// window returns where the element of global rank k lies: this PE's keys
// shard[lo:hi] of a window of total global size, in which it has rank
// k − base. A missing row on either side is that end of the shard
// (global rank 0, or n for a shard of length size).
func (t rankTable) window(k, n int64, size int) (lo, hi int, base, total int64) {
	j, _ := slices.BinarySearch(t.ranks, k)
	hi, total = size, n
	if j < len(t.ranks) {
		hi, total = int(t.pos[j]), t.ranks[j]
	}
	if j > 0 {
		lo, base = int(t.pos[j-1]), t.ranks[j-1]
	}
	return lo, hi, base, total - base
}
