package sel

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// laneSeq is lane l's input on PE r of p: globally unique ascending keys,
// a different length on every PE (some PEs hold none in lane 2).
func laneSeq(p, r, l int) SliceSeq[uint64] {
	n := 40 + 13*l + (r*(l+3))%17
	if l == 2 && r%3 == 1 {
		n = 0
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(l)<<40 | uint64(i*p+r)
	}
	return s
}

// laneIntervals are mixed [k̲, k̄] for lanes of global lengths ns: the
// minimum (lands in round one), a wide interval, a tight one (several
// rounds), one that is near the top (max-sampled), the whole lane (the
// window-maximum slot) and an exact rank.
func laneIntervals(ns []int64) [][2]int64 {
	out := make([][2]int64, len(ns))
	for l, n := range ns {
		switch l % 6 {
		case 0:
			out[l] = [2]int64{1, 1}
		case 1:
			out[l] = [2]int64{max(n/4, 1), max(n/2, 1)}
		case 2:
			out[l] = [2]int64{max(n/3, 1), max(n/3, 1) + 2}
		case 3:
			out[l] = [2]int64{max(n-9, 1), max(n-3, 1)}
		case 4:
			out[l] = [2]int64{n, 2 * n}
		case 5:
			out[l] = [2]int64{max(n/2, 1), max(n/2, 1)}
		}
	}
	return out
}

// TestAMSLanesAgainstSortOracle: L lanes of mixed intervals and lengths
// in one AMSSelectLanes, at p ∈ {1, 2, 3, 5, 8, 16}. Every lane's Count
// lies in its interval, its Threshold is the oracle's element of rank
// Count, and every PE's LocalLen is its count of keys ≤ Threshold — the
// same on the reference executor and on the mailbox scheduler at
// w ∈ {0, 1}, meters included. Lanes land in different rounds.
func TestAMSLanesAgainstSortOracle(t *testing.T) {
	const L = 7
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			ns := make([]int64, L)
			oracle := make([][]uint64, L)
			for l := range oracle {
				for r := 0; r < p; r++ {
					oracle[l] = append(oracle[l], laneSeq(p, r, l)...)
				}
				slices.Sort(oracle[l])
				ns[l] = int64(len(oracle[l]))
			}
			ivs := laneIntervals(ns)
			lanesOf := func(r int) []AMSLane[uint64] {
				lanes := make([]AMSLane[uint64], L)
				for l := range lanes {
					lanes[l] = AMSLane[uint64]{Seq: laneSeq(p, r, l), KMin: ivs[l][0], KMax: ivs[l][1], N: ns[l]}
				}
				return lanes
			}
			ref := make([][]AMSLane[uint64], p)
			mc := simexec.Reference(p)
			mc.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				ref[r] = lanesOf(r)
				AMSSelectLanes(pe, ref[r], xrand.NewPE(41, r))
			})
			refStats := mc.Stats()
			rounds := map[int]bool{}
			for l := 0; l < L; l++ {
				res := ref[0][l].Res
				rounds[res.Rounds] = true
				if res.Count < ivs[l][0] || res.Count > min(ivs[l][1], ns[l]) {
					t.Errorf("lane %d: Count %d outside [%d, %d]", l, res.Count, ivs[l][0], ivs[l][1])
					continue
				}
				if want := oracle[l][res.Count-1]; res.Threshold != want {
					t.Errorf("lane %d: Threshold %d, oracle's rank-%d element %d", l, res.Threshold, res.Count, want)
				}
				for r := 0; r < p; r++ {
					if got := ref[r][l].Res; got.Threshold != res.Threshold || got.Count != res.Count || got.Rounds != res.Rounds {
						t.Errorf("lane %d: rank %d has %+v, rank 0 %+v", l, r, got, res)
					}
					if got, want := ref[r][l].Res.LocalLen, laneSeq(p, r, l).CountLE(res.Threshold); got != want {
						t.Errorf("lane %d rank %d: LocalLen %d, want %d", l, r, got, want)
					}
				}
			}
			if p > 1 && len(rounds) < 2 {
				t.Errorf("every lane landed in the same round %v: the fixture does not stagger them", rounds)
			}
			for _, w := range []int{0, 1} {
				cfg := comm.DefaultConfig(p)
				cfg.Workers = w
				m := comm.NewMachine(cfg)
				got := make([][]AMSLane[uint64], p)
				m.MustRun(func(pe *comm.PE) {
					r := pe.Rank()
					got[r] = lanesOf(r)
					AMSSelectLanes(pe, got[r], xrand.NewPE(41, r))
				})
				for r := 0; r < p; r++ {
					for l := 0; l < L; l++ {
						if got[r][l].Res != ref[r][l].Res {
							t.Errorf("w=%d rank %d lane %d: production %+v vs reference %+v", w, r, l, got[r][l].Res, ref[r][l].Res)
						}
					}
				}
				if s := m.Stats(); s != refStats {
					t.Errorf("w=%d: stats diverge:\n  reference:  %+v\n  production: %+v", w, refStats, s)
				}
				m.Close()
			}
		})
	}
}

// TestAMSLanesShareEachRound: L lanes cost the rounds of the slowest
// lane, not the sum. At p = 16 every PE sends exactly log₂ p messages per
// all-reduction (recursive doubling: the lane vectors stay under the
// long-vector switch), two per round, minus the rank sum of a last round
// in which only window-maximum lanes were left.
func TestAMSLanesShareEachRound(t *testing.T) {
	const p, L = 16, 6
	logp := int64(bits.Len(uint(p)) - 1)
	ns := make([]int64, L)
	for l := range ns {
		for r := 0; r < p; r++ {
			ns[l] += int64(laneSeq(p, r, l).Len())
		}
	}
	ivs := laneIntervals(ns)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	lanes := make([][]AMSLane[uint64], p)
	sent := make([]int64, p)
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		lanes[r] = make([]AMSLane[uint64], L)
		for l := range lanes[r] {
			lanes[r][l] = AMSLane[uint64]{Seq: laneSeq(p, r, l), KMin: ivs[l][0], KMax: ivs[l][1], N: ns[l]}
		}
		before := pe.Sends()
		AMSSelectLanes(pe, lanes[r], xrand.NewPE(43, r))
		sent[r] = pe.Sends() - before
	})
	slowest, separate := 0, int64(0)
	for l := 0; l < L; l++ {
		slowest = max(slowest, lanes[0][l].Res.Rounds)
		separate += 2 * logp * int64(lanes[0][l].Res.Rounds)
	}
	for r, s := range sent {
		if s != 2*logp*int64(slowest) && s != (2*int64(slowest)-1)*logp {
			t.Errorf("rank %d sent %d for %d rounds of %d lanes: want 2·log₂p per round", r, s, slowest, L)
		}
	}
	t.Logf("%d lanes, slowest %d rounds: %d messages per PE, %d as separate selections", L, slowest, sent[0], separate)
	if sent[0]*2 > separate {
		t.Errorf("lanes sent %d per PE, separate selections about %d", sent[0], separate)
	}
}

// TestAMSSelectNSkipsTheSizeSum: with the global length given, the
// flexible selection is AMSSelect, which sums the lengths first, minus
// that opening size all-reduce — the same result on every PE and
// ⌈log₂ p⌉ fewer messages per PE (p a power of two), one word each.
func TestAMSSelectNSkipsTheSizeSum(t *testing.T) {
	const p, perPE = 8, 100
	logp := int64(bits.Len(uint(p)) - 1)
	n := int64(p * perPE)
	for _, kr := range [][2]int64{{1, 1}, {n / 4, n / 2}, {n / 3, n / 3}, {n - 7, n}} {
		run := func(known bool) ([]AMSResult[uint64], []int64, comm.Stats) {
			m := comm.NewMachine(comm.DefaultConfig(p))
			defer m.Close()
			res := make([]AMSResult[uint64], p)
			sent := make([]int64, p)
			m.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				before := pe.Sends()
				if known {
					res[r] = AMSSelectN[uint64](pe, msTestSeq(p, r, perPE), n, kr[0], kr[1], xrand.NewPE(47, r))
				} else {
					res[r] = AMSSelect[uint64](pe, msTestSeq(p, r, perPE), kr[0], kr[1], xrand.NewPE(47, r))
				}
				sent[r] = pe.Sends() - before
			})
			return res, sent, m.Stats()
		}
		summed, sentSummed, statsSummed := run(false)
		known, sentKnown, statsKnown := run(true)
		for r := 0; r < p; r++ {
			if known[r] != summed[r] {
				t.Errorf("%v rank %d: known-n %+v, summed %+v", kr, r, known[r], summed[r])
			}
			if sentKnown[r] != sentSummed[r]-logp {
				t.Errorf("%v rank %d: known-n sent %d, summed %d: want log₂p fewer", kr, r, sentKnown[r], sentSummed[r])
			}
		}
		if statsKnown.TotalWords != statsSummed.TotalWords-int64(p)*logp {
			t.Errorf("%v: known-n %d words, summed %d: want one 1-word butterfly fewer", kr, statsKnown.TotalWords, statsSummed.TotalWords)
		}
	}
}

// TestAMSSelectOneLaneGolden: AMSSelect is the one-lane, unknown-n case
// of the lanes engine, and that case is message for message and draw for
// draw the selection it replaced: on these fixtures the result and all
// six meters are the values the dedicated one-lane selection produced.
func TestAMSSelectOneLaneGolden(t *testing.T) {
	for _, c := range []struct {
		p, perPE   int
		kmin, kmax int64
		thr        uint64
		count      int64
		rounds     int
		lens       []int
		stats      comm.Stats
	}{
		{5, 200, 300, 330, 301, 302, 9, []int{61, 61, 60, 60, 60},
			comm.Stats{TotalWords: 280, MaxSentWords: 84, MaxRecvWords: 84, TotalSends: 190, MaxSends: 57, MaxClock: 114168}},
		{5, 200, 700, 760, 751, 752, 9, []int{151, 151, 150, 150, 150},
			comm.Stats{TotalWords: 280, MaxSentWords: 84, MaxRecvWords: 84, TotalSends: 190, MaxSends: 57, MaxClock: 114168}},
		{8, 100, 400, 800, 799, 800, 1, []int{100, 100, 100, 100, 100, 100, 100, 100},
			comm.Stats{TotalWords: 72, MaxSentWords: 9, MaxRecvWords: 9, TotalSends: 48, MaxSends: 6, MaxClock: 12018}},
		{3, 50, 150, 150, 149, 150, 1, []int{50, 50, 50},
			comm.Stats{TotalWords: 12, MaxSentWords: 6, MaxRecvWords: 6, TotalSends: 8, MaxSends: 4, MaxClock: 8012}},
		{16, 64, 1, 1, 0, 1, 1, []int{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			comm.Stats{TotalWords: 256, MaxSentWords: 16, MaxRecvWords: 16, TotalSends: 192, MaxSends: 12, MaxClock: 24032}},
		{6, 100, 37, 37, 36, 37, 9, []int{7, 6, 6, 6, 6, 6},
			comm.Stats{TotalWords: 336, MaxSentWords: 84, MaxRecvWords: 84, TotalSends: 228, MaxSends: 57, MaxClock: 114168}},
	} {
		name := fmt.Sprintf("p=%d [%d,%d]", c.p, c.kmin, c.kmax)
		m := comm.NewMachine(comm.DefaultConfig(c.p))
		res := make([]AMSResult[uint64], c.p)
		m.MustRun(func(pe *comm.PE) {
			r := pe.Rank()
			res[r] = AMSSelect[uint64](pe, msTestSeq(c.p, r, c.perPE), c.kmin, c.kmax, xrand.NewPE(71, r))
		})
		for r := range res {
			want := AMSResult[uint64]{Threshold: c.thr, Count: c.count, LocalLen: c.lens[r], Rounds: c.rounds}
			if res[r] != want {
				t.Errorf("%s rank %d: %+v, want %+v", name, r, res[r], want)
			}
		}
		if s := m.Stats(); s != c.stats {
			t.Errorf("%s: stats %+v, want %+v", name, s, c.stats)
		}
		m.Close()
	}
}
