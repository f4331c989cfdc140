package mtopk

import (
	"sort"
	"testing"

	"commtopk/internal/xrand"
)

// tiedObjects draws n objects whose m scores come from {0, 0.5, 1} (heavy
// ties) and whose ids are a scramble of the positions.
func tiedObjects(rng *xrand.RNG, n, m int) []Object {
	objs := make([]Object, n)
	for pos := range objs {
		scores := make([]float64, m)
		for j := range scores {
			scores[j] = []float64{0, 0.5, 1}[rng.Intn(3)]
		}
		objs[pos] = Object{ID: uint64(pos*7919%n)<<20 | uint64(rng.Intn(1<<20)), Scores: scores}
	}
	return objs
}

// TestNewDataListsMatchStableSort checks the radix-built lists against a
// sort.SliceStable reference (score descending, then id ascending) under
// heavy score ties with ids out of position order, together with the
// ords and the dense ranks.
func TestNewDataListsMatchStableSort(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{0, 1, 2, 7, 500} {
		const m = 3
		objs := tiedObjects(rng, n, m)
		d := NewData(objs, m)
		for i := 0; i < m; i++ {
			ref := make([]int, n)
			for pos := range ref {
				ref[pos] = pos
			}
			sort.SliceStable(ref, func(a, b int) bool {
				sa, sb := objs[ref[a]].Scores[i], objs[ref[b]].Scores[i]
				if sa != sb {
					return sa > sb
				}
				return objs[ref[a]].ID < objs[ref[b]].ID
			})
			for r, pos := range ref {
				e := d.lists[i][r]
				if int(e.pos) != pos || e.score != objs[pos].Scores[i] {
					t.Fatalf("n=%d list %d rank %d: (%v, pos %d), want (%v, pos %d)", n, i, r, e.score, e.pos, objs[pos].Scores[i], pos)
				}
				if d.ords[i][r] != OrdDesc(e.score) {
					t.Fatalf("n=%d list %d rank %d: ord %#x, want OrdDesc(%v)", n, i, r, d.ords[i][r], e.score)
				}
				if got := d.ranks[pos*m+i]; int(got) != r {
					t.Fatalf("n=%d list %d: object %d ranked %d, want %d", n, i, pos, got, r)
				}
			}
		}
	}
}

// TestInEarlierPrefixMatchesScan checks the dense-rank test against a
// brute-force scan of the earlier lists' prefixes.
func TestInEarlierPrefixMatchesScan(t *testing.T) {
	rng := xrand.New(13)
	const n, m = 200, 4
	d := NewData(tiedObjects(rng, n, m), m)
	lens := make([]int, m)
	for trial := 0; trial < 50; trial++ {
		for j := range lens {
			lens[j] = rng.Intn(n + 1)
		}
		for i := 0; i < m; i++ {
			for pos := int32(0); pos < n; pos++ {
				want := false
				for j := 0; j < i && !want; j++ {
					for _, e := range d.lists[j][:lens[j]] {
						want = want || e.pos == pos
					}
				}
				if got := d.inEarlierPrefix(pos, i, lens); got != want {
					t.Fatalf("lens %v: object %d in list %d: inEarlierPrefix %v, scan %v", lens, pos, i, got, want)
				}
			}
		}
	}
}

var sinkData *Data

// BenchmarkNewData times the local index DTA is built on: 2^11 objects
// with 4 criteria each, as one PE of the batch-aggregate workload holds.
func BenchmarkNewData(b *testing.B) {
	objs := GenObjects(xrand.New(5), 1<<11, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkData = NewData(objs, 4)
	}
}
