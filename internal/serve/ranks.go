package serve

import (
	"cmp"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/sel"
)

// rankTable is one PE's share of the resident rank table, which cuts
// the key set into windows of r keys at exact global ranks. The key set
// is ordered by (key, PE rank, position in that PE's sorted shard), which
// gives every key its own rank however many keys share its value. cut[j]
// is this PE's count of keys among the first j·r keys of that order, for
// every multiple of r below n, and then the length of its shard; the
// ranks themselves are implicit. So the keys of global ranks
// (j·r, (j+1)·r] are the union over PEs of shard[cut[j]:cut[j+1]].
type rankTable struct {
	r, n int64
	cut  []int32
}

// window returns the window holding the key of global rank k: this PE's
// keys shard[lo:hi] of a window of total keys, in which k has rank kRem.
func (t rankTable) window(k int64) (lo, hi int, total, kRem int64) {
	j := (k - 1) / t.r
	return int(t.cut[j]), int(t.cut[j+1]), min(t.r, t.n-j*t.r), k - j*t.r
}

// rangePart is what a PE sends the owner of a range: its keys in the
// range and how many of its keys lie before it.
type rangePart[K cmp.Ordered] struct {
	before int
	keys   []K
}

// buildRankTable is the blocking SPMD build of the rank table with rows
// of r keys over this PE's sorted shard, of a key set of n > r keys: it
// sorts the key set by ranges but keeps only the cuts. Owners of the
// ranges are ranks 0..q−1, q = n/(p·r) clamped to [1, p], so that its two
// exchanges cost at most two messages per row.
//  1. The root sorts a regular sample of q−1 keys per PE and broadcasts
//     q−1 splitters. Range i holds the keys from splitter i−1 up to below
//     splitter i, so a tie group lies in one range, however large.
//  2. Every PE sends owner i its keys in range i, a read-only view of the
//     resident shard, and its count of keys before the range.
//  3. Owner i sums those counts to the global rank its range starts
//     after and merges its p runs in the key set's order. At each global
//     rank that is a multiple of r below n, a run's merged count plus its
//     start is its PE's cut; owner i sends every PE its cuts.
//
// Local work is O(n/q · log p) on an owner; nothing but the cuts outlives
// the call.
func buildRankTable[K cmp.Ordered](pe *comm.PE, shard []K, r, n int64) rankTable {
	p, me := pe.P(), pe.Rank()
	q := int(min(int64(p), max(1, n/(int64(p)*r))))
	var sample []K
	for i := 1; i < q && len(shard) > 0; i++ {
		sample = append(sample, shard[i*len(shard)/q])
	}
	var splitters []K
	comm.RunSteps(pe, coll.ReduceConcatStep(pe, 0, nil, 1, sample, func(_ []int64, all []K) {
		if all != nil {
			slices.Sort(all)
			for i := 1; i < q; i++ {
				splitters = append(splitters, all[i*len(all)/q])
			}
		}
	}))
	// off[i] is where range i starts in this shard: its keys below the
	// i-th splitter.
	off := make([]int, q+1)
	off[q] = len(shard)
	for i, s := range coll.Broadcast(pe, 0, splitters) {
		off[i+1] = sel.SliceSeq[K](shard).CountLess(s)
	}
	parts, replies := pe.NextCollTag(), pe.NextCollTag()
	for i := range q {
		if i != me {
			part := rangePart[K]{before: off[i], keys: shard[off[i]:off[i+1]]}
			pe.Send(i, parts, part, 1+int64(len(part.keys))*coll.WordsOf[K]())
		}
	}
	var cols []int32 // an owner's cuts: PE s's at its row j is cols[s·rows+j]
	rows := 0
	if me < q {
		runs, before := make([][]K, p), make([]int, p)
		var base, m int64
		for src := range runs {
			part := rangePart[K]{before: off[me], keys: shard[off[me]:off[me+1]]}
			if src != me {
				rx, _ := pe.Recv(src, parts)
				part = rx.(rangePart[K])
			}
			runs[src], before[src] = part.keys, part.before
			base += int64(part.before)
			m += int64(len(part.keys))
		}
		// The range's rows lie at the multiples of r in (base,
		// min(base+m, n−1)].
		if next, last := (base/r+1)*r, min(base+m, n-1); next <= last {
			rows = int((last-next)/r + 1)
			cols = cutRuns(runs, before, next-base, r, rows)
		}
		for s := range p {
			if s != me {
				col := cols[s*rows : (s+1)*rows]
				pe.Send(s, replies, col, int64(len(col))*coll.WordsOf[int32]())
			}
		}
	}
	cut := make([]int32, 1, (n-1)/r+2)
	for i := range q {
		col := cols[me*rows : (me+1)*rows]
		if i != me {
			rx, _ := pe.Recv(i, replies)
			col = rx.([]int32)
		}
		cut = append(cut, col...)
	}
	return rankTable{r: r, n: n, cut: append(cut, int32(len(shard)))}
}

// cutRuns merges sorted runs in (key, run) order and records, at the
// merged positions first, first+r, … (1-based, rows of them), how many
// keys of each run the merge has taken, plus before[s] for run s: at
// row j in cols[s·rows+j].
func cutRuns[K cmp.Ordered](runs [][]K, before []int, first, r int64, rows int) []int32 {
	cols := make([]int32, len(runs)*rows)
	t := &loserTree[K]{runs: runs, pos: make([]int, len(runs)), node: make([]head[K], len(runs)), win: make([]head[K], 2*len(runs))}
	for s, run := range runs {
		if len(run) > 0 {
			t.live = append(t.live, s)
		}
	}
	t.play()
	for g, j := int64(1), 0; j < rows; g++ {
		t.pop()
		if g == first {
			for s, c := range t.pos {
				cols[s*rows+j] = int32(before[s] + c)
			}
			j++
			first += r
		}
	}
	return cols
}

// loserTree merges the runs not yet exhausted, about log₂ of their number
// comparisons per key: leaf i plays run live[i] (ascending, so a lower
// leaf is a lower run) at node len(live)+i, node x ≥ 1 holds the head
// that lost the match there and node 0 the winner. pos[s] counts the keys
// of run s popped.
type loserTree[K cmp.Ordered] struct {
	runs      [][]K
	pos       []int
	live      []int
	node, win []head[K] // win: play's winners by node
}

// head is a run's next key and the leaf that plays the run.
type head[K cmp.Ordered] struct {
	key  K
	leaf int
}

// play plays the tournament from scratch.
func (t *loserTree[K]) play() {
	l, win := len(t.live), t.win
	for i, s := range t.live {
		win[l+i] = head[K]{t.runs[s][t.pos[s]], i}
	}
	for x := l - 1; x >= 1; x-- {
		a, b := win[2*x], win[2*x+1]
		if b.key < a.key || b.key == a.key && b.leaf < a.leaf {
			a, b = b, a
		}
		win[x], t.node[x] = a, b
	}
	if l > 0 {
		t.node[0] = win[1] // the root, or for one run its leaf
	}
}

// pop takes the least head, the lowest run's on a tie. Some run must
// still hold a key.
func (t *loserTree[K]) pop() {
	w := t.node[0].leaf
	s := t.live[w]
	if t.pos[s]++; t.pos[s] == len(t.runs[s]) {
		t.live = slices.Delete(t.live, w, w+1)
		t.play()
		return
	}
	cur := head[K]{t.runs[s][t.pos[s]], w}
	for x := (w + len(t.live)) / 2; x >= 1; x /= 2 {
		// Register moves and one store whichever wins: no branch on the
		// (unpredictable) outcome.
		lost := t.node[x]
		less := lost.key < cur.key
		if lost.key == cur.key {
			less = lost.leaf < cur.leaf
		}
		if less {
			lost, cur = cur, lost
		}
		t.node[x] = lost
	}
	t.node[0] = cur
}
