package sel

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// lanesFeed is one PE's Feed in the lane tests: it hands over lanes in a
// fixed order, the first ones when the selection starts (level 0) and the
// rest when rank 0 reads Ready at level 1's up-sweep, so that they join
// at level 2. It records every answer and lane meter and counts the
// levels (rank 0's Ready calls).
type lanesFeed struct {
	lanes  []Lane[uint64]
	late   int // lanes[late:] join at level 2
	next   int
	levels int
	res    []uint64
	meters [][2]int64
	done   int
}

func (f *lanesFeed) Ready() int {
	if f.levels++; f.levels == 2 {
		return len(f.lanes) - f.late
	}
	return 0
}

func (f *lanesFeed) Next(*comm.PE) (Lane[uint64], *comm.RecvHandle) {
	f.next++
	return f.lanes[f.next-1], nil
}

func (f *lanesFeed) Done(_ *comm.PE, id int, v uint64, words, sends int64) {
	f.res[id] = v
	f.meters[id] = [2]int64{words, sends}
	f.done++
}

// treeSends is what PE r of p sends in one level's two sweeps of the
// binomial tree rooted at 0: its one up-sweep message (none from the
// root) and one down-sweep message per child.
func treeSends(r, p int) int64 {
	var n int64
	if r != 0 {
		n = 1
	}
	for mask := 1; mask < p && r&mask == 0; mask <<= 1 {
		if r|mask < p {
			n++
		}
	}
	return n
}

// lanesShape is one fixture of TestKthLanesShareEachLevel: p sorted
// shards and the windows lane j selects in.
type lanesShape struct {
	name   string
	p      int
	sorted [][]uint64
	// window returns lane j's slice of PE r's sorted shard.
	window func(j, r int) []uint64
}

// TestKthLanesShareEachLevel runs the lanes engine (KthSortedLanesStep)
// under RunAsync on the thin serving shape (p = 64, n/p = 256, whole
// shards) and on p = 16 windows of sorted shards, with L ∈ {1, 2, 8}
// lanes: half of them (rounded up) start at level 0 and the rest are
// admitted at level 2, one of them at rank 1 of its window, so that it
// runs the k = 1 min-reduction while the others sweep. Every answer must
// be the sort oracle's on every PE; every PE must send exactly the shared
// levels' sweeps (treeSends per level) plus log₂ p per private collective
// of any lane; one lane must send exactly what KthSortedStep sends on the
// same window and stream; every lane's meters, summed over the PEs, must
// be that lone selection's words and sends at any L; and 8 lanes must
// send at most half of what their 8 selections send one at a time.
func TestKthLanesShareEachLevel(t *testing.T) {
	rng := xrand.New(71)
	thin := lanesShape{name: "thin", p: 64}
	thin.sorted = make([][]uint64, thin.p)
	for r := range thin.sorted {
		thin.sorted[r] = make([]uint64, 256)
		for i := range thin.sorted[r] {
			thin.sorted[r][i] = rng.Uint64()
		}
		slices.Sort(thin.sorted[r])
	}
	thin.window = func(_, r int) []uint64 { return thin.sorted[r] }
	win := lanesShape{name: "windows", p: 16}
	win.sorted = make([][]uint64, win.p)
	for r := range win.sorted {
		win.sorted[r] = make([]uint64, 1024+16*r)
		for i := range win.sorted[r] {
			win.sorted[r][i] = rng.Uint64()
		}
		slices.Sort(win.sorted[r])
	}
	win.window = func(j, r int) []uint64 {
		sh := win.sorted[r]
		lo := j * len(sh) / 16
		return sh[lo : lo+len(sh)/4]
	}
	for _, sh := range []lanesShape{thin, win} {
		for _, nl := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s L=%d", sh.name, nl)
			lanes := make([]Lane[uint64], nl)
			want := make([]uint64, nl)
			for j := range lanes {
				var union []uint64
				for r := range sh.p {
					union = append(union, sh.window(j, r)...)
				}
				slices.Sort(union)
				n := int64(len(union))
				k := 2 + int64(j)*(n-3)/int64(nl)
				if nl > 1 && j == nl-1 {
					k = 1 // a late lane that runs the min-reduction
				}
				lanes[j] = Lane[uint64]{N: n, K: k, Seed: int64(100 + j), ID: j}
				want[j] = union[k-1]
			}
			got, sends, stats := runLanes(t, sh, lanes, (nl+1)/2)
			for r, f := range got {
				if f.done != nl || !slices.Equal(f.res, want) {
					t.Errorf("%s: PE %d answered %d lanes %v, want %v", name, r, f.done, f.res, want)
				}
			}
			levels, privates := got[0].levels, got[0].private
			logp := int64(bits.Len(uint(sh.p)) - 1)
			for r := range sh.p {
				if w := int64(levels)*treeSends(r, sh.p) + int64(privates)*logp; sends[r] != w || got[r].private != privates {
					t.Errorf("%s: PE %d sent %d messages in %d levels and %d private collectives (it saw %d); want %d",
						name, r, sends[r], levels, privates, got[r].private, w)
				}
			}
			// The same lanes, each selected alone by KthSortedStep.
			var alone int64
			for j, l := range lanes {
				m := comm.NewMachine(comm.DefaultConfig(sh.p))
				m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
					return KthSortedStep(pe, sh.window(j, pe.Rank()), l.N, l.K, xrand.NewPE(l.Seed, pe.Rank()), nil)
				})
				st := m.Stats()
				m.Close()
				alone += st.TotalSends
				var lane [2]int64
				for _, f := range got {
					lane[0] += f.meters[j][0]
					lane[1] += f.meters[j][1]
				}
				if w := [2]int64{st.TotalWords, st.TotalSends}; lane != w {
					t.Errorf("%s: lane %d metered (words, sends) %v, alone it sends %v", name, j, lane, w)
				}
				if nl == 1 && st != stats {
					t.Errorf("%s: meters %+v, KthSortedStep's %+v", name, stats, st)
				}
			}
			t.Logf("%s: %d levels, %d private collectives, %d messages; %d for the lanes one at a time", name, levels, privates, stats.TotalSends, alone)
			if nl == 8 && 2*stats.TotalSends > alone {
				t.Errorf("%s: %d messages, more than half of the %d the lanes send one at a time", name, stats.TotalSends, alone)
			}
		}
	}
}

// lanesRun is what runLanes saw on one PE: the feed, and the private
// collectives the engine harvested.
type lanesRun struct {
	*lanesFeed
	private int
}

// runLanes runs lanes (their Sorted filled in per PE from sh) through
// KthSortedLanesStep on a fresh machine, the first ones from the start
// and the rest from level 2, and returns every PE's feed, its sends and
// the machine's meters.
func runLanes(t *testing.T, sh lanesShape, lanes []Lane[uint64], first int) ([]lanesRun, []int64, comm.Stats) {
	t.Helper()
	m := comm.NewMachine(comm.DefaultConfig(sh.p))
	defer m.Close()
	got := make([]lanesRun, sh.p)
	sends := make([]int64, sh.p)
	m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
		r := pe.Rank()
		f := &lanesFeed{lanes: slices.Clone(lanes), late: first, res: make([]uint64, len(lanes)), meters: make([][2]int64, len(lanes))}
		for j := range f.lanes {
			f.lanes[j].Sorted = sh.window(j, r)
		}
		got[r].lanesFeed = f
		st := KthSortedLanesStep[uint64](pe, f, first).(*kthStep[uint64])
		// The private collectives deliver through these two callbacks;
		// the machine is this run's alone, so the wrapped pooled state
		// is not reused.
		onTag, onI64 := st.onTag, st.onI64
		st.onTag = func(v tagged[uint64]) { got[r].private++; onTag(v) }
		st.onI64 = func(v int64) { got[r].private++; onI64(v) }
		return comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
			s0 := pe.Sends()
			h := st.Step(pe)
			sends[r] += pe.Sends() - s0
			return h
		})
	})
	return got, sends, m.Stats()
}
