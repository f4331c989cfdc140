package coll

import (
	"slices"
	"testing"

	"commtopk/internal/comm"
)

// peCounts covers the interesting topology cases: 1, powers of two, odd,
// and non-power-of-two composites.
var peCounts = []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17}

func runOn(t *testing.T, p int, body func(pe *comm.PE)) *comm.Machine {
	t.Helper()
	m := comm.NewMachine(comm.DefaultConfig(p))
	if err := m.Run(body); err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	return m
}

func TestBroadcast(t *testing.T) {
	for _, p := range peCounts {
		for root := 0; root < p; root += max(1, p/3) {
			runOn(t, p, func(pe *comm.PE) {
				var data []int64
				if pe.Rank() == root {
					data = []int64{10, 20, 30}
				}
				got := Broadcast(pe, root, data)
				if !slices.Equal(got, []int64{10, 20, 30}) {
					t.Errorf("p=%d root=%d rank=%d: got %v", p, root, pe.Rank(), got)
				}
			})
		}
	}
}

func TestBroadcastLogStartups(t *testing.T) {
	// Bottleneck startups must be O(log p), not O(p).
	m := comm.NewMachine(comm.DefaultConfig(64))
	m.MustRun(func(pe *comm.PE) {
		Broadcast(pe, 0, []int64{1})
	})
	if s := m.Stats(); s.MaxSends > 6 { // log2(64) = 6
		t.Errorf("broadcast bottleneck startups = %d, want <= 6", s.MaxSends)
	}
}

func TestAllReduce(t *testing.T) {
	for _, p := range peCounts {
		runOn(t, p, func(pe *comm.PE) {
			x := []int64{int64(pe.Rank()), int64(pe.Rank() * 2)}
			got := AllReduce(pe, x, func(a, b int64) int64 { return a + b })
			wantSum := int64(p * (p - 1) / 2)
			if got[0] != wantSum || got[1] != 2*wantSum {
				t.Errorf("p=%d rank=%d: got %v, want [%d %d]", p, pe.Rank(), got, wantSum, 2*wantSum)
			}
		})
	}
}

func TestAllReduceMinMax(t *testing.T) {
	for _, p := range peCounts {
		runOn(t, p, func(pe *comm.PE) {
			if got := AllReduceScalar(pe, pe.Rank()+5, func(a, b int) int { return min(a, b) }); got != 5 {
				t.Errorf("min all-reduce got %d", got)
			}
			if got := AllReduceScalar(pe, pe.Rank(), func(a, b int) int { return max(a, b) }); got != p-1 {
				t.Errorf("max all-reduce got %d, want %d", got, p-1)
			}
			if got := SumAll(pe, int64(1)); got != int64(p) {
				t.Errorf("SumAll got %d, want %d", got, p)
			}
		})
	}
}

func TestScans(t *testing.T) {
	for _, p := range peCounts {
		runOn(t, p, func(pe *comm.PE) {
			r := int64(pe.Rank())
			want := r * (r + 1) / 2 // 1 + 2 + … + r
			if got := ExScanSum(pe, r+1); got != want {
				t.Errorf("p=%d rank=%d: ExScan got %d, want %d", p, pe.Rank(), got, want)
			}
		})
	}
}

func TestAllGatherv(t *testing.T) {
	for _, p := range peCounts {
		runOn(t, p, func(pe *comm.PE) {
			got := AllGatherv(pe, []int{pe.Rank() * 3})
			for r := 0; r < p; r++ {
				if len(got[r]) != 1 || got[r][0] != r*3 {
					t.Errorf("p=%d rank=%d: allgather[%d] = %v", p, pe.Rank(), r, got[r])
				}
			}
		})
	}
}

func TestAllGatherConcat(t *testing.T) {
	runOn(t, 4, func(pe *comm.PE) {
		got := AllGatherConcat(pe, []int{pe.Rank(), pe.Rank()})
		want := []int{0, 0, 1, 1, 2, 2, 3, 3}
		if !slices.Equal(got, want) {
			t.Errorf("got %v, want %v", got, want)
		}
	})
}

func TestAllGatherDisseminationBounds(t *testing.T) {
	// The Bruck all-gather must cost ⌈log₂ p⌉ startups per PE and a
	// bottleneck volume of ≤ total + p length words (a gather plus a
	// binomial broadcast would put Θ(total·log p) on the root).
	const p, blockLen = 64, 4
	m := comm.NewMachine(comm.DefaultConfig(p))
	m.MustRun(func(pe *comm.PE) {
		data := make([]int64, blockLen)
		for i := range data {
			data[i] = int64(pe.Rank())
		}
		AllGatherConcat(pe, data)
	})
	s := m.Stats()
	if s.MaxSends > 6 { // log2(64)
		t.Errorf("all-gather bottleneck startups = %d, want <= 6", s.MaxSends)
	}
	total := int64(p * blockLen)
	if got, bound := s.BottleneckWords(), total+p; got > bound {
		t.Errorf("all-gather bottleneck volume = %d words, want <= total+p = %d", got, bound)
	}
}

func TestAllGatherConcatOwnedResult(t *testing.T) {
	// The concat result is caller-owned: mutating it must not corrupt any
	// other PE's view or the caller's input.
	runOn(t, 4, func(pe *comm.PE) {
		in := []int{pe.Rank()}
		got := AllGatherConcat(pe, in)
		for i := range got {
			got[i] = -1
		}
		if in[0] != pe.Rank() {
			t.Errorf("rank %d: input mutated through result", pe.Rank())
		}
	})
}

func TestAllToAll(t *testing.T) {
	for _, p := range peCounts {
		runOn(t, p, func(pe *comm.PE) {
			parts := make([][]int, p)
			for i := range parts {
				parts[i] = []int{pe.Rank()*100 + i}
			}
			got := AllToAll(pe, parts)
			for src := 0; src < p; src++ {
				want := src*100 + pe.Rank()
				if len(got[src]) != 1 || got[src][0] != want {
					t.Errorf("p=%d rank=%d: from %d got %v, want [%d]", p, pe.Rank(), src, got[src], want)
				}
			}
		})
	}
}

func TestBarrier(t *testing.T) {
	runOn(t, 8, func(pe *comm.PE) { Barrier(pe) })
}

func TestWordsOf(t *testing.T) {
	if w := WordsOf[uint64](); w != 1 {
		t.Errorf("WordsOf[uint64] = %d", w)
	}
	if w := WordsOf[struct{ A, B uint64 }](); w != 2 {
		t.Errorf("WordsOf[pair] = %d", w)
	}
	if w := WordsOf[byte](); w != 1 {
		t.Errorf("WordsOf[byte] = %d", w)
	}
}

// routed is a router test item: its destination rank and a payload.
type routed struct {
	Dest    int
	Payload int64
}

func routedDest(it routed) int { return it.Dest }

// routeCombine runs the router and returns a copy of the routed batch.
func routeCombine[T any](pe *comm.PE, items []T, dest func(T) int, combine func([]T) []T) []T {
	var got []T
	RouteCombine(pe, items, dest, combine, func(b []T) { got = slices.Clone(b) })
	return got
}

func TestRouteCombine(t *testing.T) {
	type kv struct {
		Dest  int
		Key   uint64
		Count int64
	}
	for _, p := range peCounts {
		runOn(t, p, func(pe *comm.PE) {
			// Every PE sends one item to every dest; dest d should end with
			// p items (or fewer after combining) summing to p * (d+1).
			items := make([]kv, 0, p)
			for d := 0; d < p; d++ {
				items = append(items, kv{Dest: d, Key: uint64(d), Count: int64(d + 1)})
			}
			combine := func(held []kv) []kv {
				type dk struct {
					dest int
					key  uint64
				}
				agg := map[dk]int64{}
				for _, it := range held {
					agg[dk{it.Dest, it.Key}] += it.Count
				}
				out := make([]kv, 0, len(agg))
				for k, c := range agg {
					out = append(out, kv{k.dest, k.key, c})
				}
				return out
			}
			got := routeCombine(pe, items, func(it kv) int { return it.Dest }, combine)
			var total int64
			for _, it := range got {
				if it.Dest != pe.Rank() {
					t.Errorf("p=%d rank=%d: received item for dest %d", p, pe.Rank(), it.Dest)
				}
				if it.Key != uint64(pe.Rank()) {
					t.Errorf("p=%d rank=%d: received key %d", p, pe.Rank(), it.Key)
				}
				total += it.Count
			}
			want := int64(p) * int64(pe.Rank()+1)
			if total != want {
				t.Errorf("p=%d rank=%d: total %d, want %d", p, pe.Rank(), total, want)
			}
		})
	}
}

func TestRouteCombineNoCombineHook(t *testing.T) {
	for _, p := range peCounts {
		runOn(t, p, func(pe *comm.PE) {
			items := []routed{{Dest: (pe.Rank() + 1) % p, Payload: int64(pe.Rank())}}
			got := routeCombine(pe, items, routedDest, nil)
			wantFrom := int64((pe.Rank() - 1 + p) % p)
			if len(got) != 1 || got[0].Payload != wantFrom {
				t.Errorf("p=%d rank=%d: got %v, want payload %d", p, pe.Rank(), got, wantFrom)
			}
		})
	}
}

func TestRouteCombineLogStartups(t *testing.T) {
	m := comm.NewMachine(comm.DefaultConfig(64))
	m.MustRun(func(pe *comm.PE) {
		items := make([]routed, 64)
		for d := range items {
			items[d] = routed{Dest: d, Payload: int64(d)}
		}
		routeCombine(pe, items, routedDest, nil)
	})
	if s := m.Stats(); s.MaxSends > 8 {
		t.Errorf("hypercube bottleneck startups = %d, want <= 8 (log p + fold)", s.MaxSends)
	}
}

func TestAllReduceLongVectors(t *testing.T) {
	// Exercise the Rabenseifner path (len ≥ 4p) on all topology shapes,
	// including lengths that do not divide evenly.
	for _, p := range peCounts {
		for _, n := range []int{4 * p, 4*p + 3, 257, 1024} {
			runOn(t, p, func(pe *comm.PE) {
				x := make([]int64, n)
				for i := range x {
					x[i] = int64(pe.Rank()*n + i)
				}
				got := AllReduce(pe, x, func(a, b int64) int64 { return a + b })
				for i := range got {
					var want int64
					for r := 0; r < p; r++ {
						want += int64(r*n + i)
					}
					if got[i] != want {
						t.Fatalf("p=%d n=%d: elem %d = %d, want %d", p, n, i, got[i], want)
					}
				}
			})
		}
	}
}

func TestAllReduceLongVolumeIndependentOfP(t *testing.T) {
	// The Rabenseifner path must cost ~2m words per PE, not m·log p.
	const n = 4096
	vol := func(p int) int64 {
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			x := make([]int64, n)
			AllReduce(pe, x, func(a, b int64) int64 { return a + b })
		})
		return m.Stats().MaxSentWords
	}
	v8, v64 := vol(8), vol(64)
	if v64 > v8*3/2 {
		t.Errorf("long allreduce volume grew from %d (p=8) to %d (p=64); should be ~flat", v8, v64)
	}
	if v64 > 3*n {
		t.Errorf("long allreduce volume %d exceeds ~2m = %d", v64, 2*n)
	}
}
