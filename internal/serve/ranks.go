package serve

import (
	"cmp"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
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
// one all-gather gives every PE all rows as p runs already in cmpRow
// order, a p-way merge of the runs walks the rows in order while one
// merging walk over the shard counts this PE's keys at or before each
// row, and one vector all-reduce sums the counts into exact global
// ranks: O(rows·log p + len(shard)) local work. Shards shorter than the
// stride contribute no row; when all of them are, the table is empty.
// Neither the gathered rows nor the all-reduce buffer outlive the call.
func buildRankTable[K cmp.Ordered](pe *comm.PE, shard []K) rankTable {
	stride := rankStride * pe.P()
	me := int32(pe.Rank())
	var mine []tableRow[K]
	for i := stride - 1; i < len(shard); i += stride {
		mine = append(mine, tableRow[K]{key: shard[i], src: me, idx: int32(i)})
	}
	rows := coll.AllGatherConcat(pe, mine)
	t := rankTable{ranks: make([]int64, len(rows)), pos: make([]int32, len(rows))}
	// The rows come in cmpRow order, so this PE's count is monotone in j
	// and c only moves forward: below, at or above a row's source it
	// counts the keys < key, the row itself, or the keys <= key.
	c := 0
	mergeRuns(rows, func(j int, r tableRow[K]) {
		switch {
		case me < r.src:
			for c < len(shard) && shard[c] <= r.key {
				c++
			}
		case me > r.src:
			for c < len(shard) && shard[c] < r.key {
				c++
			}
		default:
			c = int(r.idx) + 1
		}
		t.pos[j], t.ranks[j] = int32(c), int64(c)
	})
	copy(t.ranks, coll.AllReduce(pe, t.ranks, addInt64))
	return t
}

// mergeRuns calls visit(j, row) for every row in cmpRow order, j counting
// from 0. rows is the concatenation of runs in cmpRow order, one per
// source PE (a run is a maximal stretch of one src); a binary heap of the
// runs' heads merges them in O(len(rows)·log runs).
func mergeRuns[K cmp.Ordered](rows []tableRow[K], visit func(int, tableRow[K])) {
	// Run i's rows left are rows[next[i]:end[i]]; h holds the runs not
	// yet exhausted, a min-heap by their next row.
	var next, end, h []int
	for i := range rows {
		if i == 0 || rows[i].src != rows[i-1].src {
			if i > 0 {
				end = append(end, i)
			}
			h = append(h, len(next))
			next = append(next, i)
		}
	}
	end = append(end, len(rows))
	less := func(a, b int) bool { return cmpRow(rows[next[h[a]]], rows[next[h[b]]]) < 0 }
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(c+1, c) {
				c++
			}
			if !less(c, i) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for j := range rows {
		r := h[0]
		visit(j, rows[next[r]])
		if next[r]++; next[r] == end[r] {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
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
