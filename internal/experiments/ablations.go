package experiments

import (
	"fmt"

	"commtopk/internal/bpq"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/redist"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// AblationAMSBatch measures Theorem 4: batching d concurrent Bernoulli
// trials into one vector reduction cuts the expected round count of
// flexible selection, at β·d extra volume per round.
func AblationAMSBatch(p, perPE int, kmin, kmax int64, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Ablation — amsSelect concurrent trials (p=%d, n/p=%d, k∈[%d,%d])", p, perPE, kmin, kmax),
		Notes:  "Theorem 4: expected rounds drop as d grows; words/PE grows with βd per round",
		Header: append([]string{"d", "rounds(avg)", "wall(ms)"}, stdHeader...),
	}
	locals := sortedLocals(seed, p, perPE)
	for _, d := range []int{1, 2, 4, 8, 16, 32} {
		const reps = 10
		var rounds int
		m := comm.NewMachine(comm.DefaultConfig(p))
		var last *measurement
		for rep := 0; rep < reps; rep++ {
			rep := rep
			meas := runMeasured(m, func(pe *comm.PE) {
				res := sel.AMSSelectBatched[uint64](pe, sel.SliceSeq[uint64](locals[pe.Rank()]),
					kmin, kmax, d, xrand.NewPE(seed+int64(100+rep), pe.Rank()))
				if pe.Rank() == 0 {
					rounds += res.Rounds
				}
			})
			last = meas
		}
		row := []string{fmt.Sprintf("%d", d), fmt.Sprintf("%.1f", float64(rounds)/reps), ms(last.wall)}
		t.Rows = append(t.Rows, append(row, stdCols(last)...))
	}
	return t
}

// AblationPQFlexible measures Theorem 5's trade: flexible deleteMin*
// batches (Algorithm 2, O(α log kp)) vs exact batches, in bottleneck
// startups. The paper's exact batch is Algorithm 9, O(α log² kp); here it
// is Algorithm 1 on the Appendix A prefix, also O(α log kp), so the log
// factor is gone and the constants decide.
func AblationPQFlexible(p, perPE int, k int64, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Ablation — bulk PQ deleteMin*: exact vs flexible batch (p=%d, n/p=%d, k=%d)", p, perPE, k),
		Notes:  "Theorem 5: flexible batches save a log factor over Alg. 9; exact is Alg. 1 on the App. A prefix here, O(α log kp) too",
		Header: append([]string{"variant", "wall(ms)"}, stdHeader...),
	}
	locals := sortedLocals(seed, p, perPE)
	for _, flexible := range []bool{false, true} {
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			q := bpq.New[uint64](pe, seed+1)
			q.InsertBulk(locals[pe.Rank()])
			if flexible {
				q.DeleteMinFlexible(k, 2*k)
			} else {
				q.DeleteMin(k)
			}
		})
		name := "exact k"
		if flexible {
			name = "flexible k..2k"
		}
		t.Rows = append(t.Rows, append([]string{name, ms(meas.wall)}, stdCols(meas)...))
	}
	return t
}

// AblationDHTRouting measures the Section 7.1 design choice: direct
// all-to-all vs hypercube delivery with per-step aggregation, on a
// workload where every PE counts the same keys. Total volume is the same
// for both (each contribution crosses the network once either way); the
// hypercube's wins are the O(log p) startups instead of p−1 — the
// "indirect delivery to maintain logarithmic latency" of the paper — and
// a smoother receive bottleneck under skewed key ownership.
func AblationDHTRouting(p, distinct int, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Ablation — DHT count routing (p=%d, %d shared keys per PE)", p, distinct),
		Notes:  "hypercube: O(log p) startups and smoothed recv bottleneck; direct: p−1 startups\n(total volume ties — every contribution crosses the network once either way)",
		Header: append([]string{"route", "wall(ms)"}, stdHeader...),
	}
	for _, mode := range []dht.RouteMode{dht.RouteDirect, dht.RouteHypercube} {
		m := comm.NewMachine(comm.DefaultConfig(p))
		meas := runMeasured(m, func(pe *comm.PE) {
			local := make([]dht.KV, distinct)
			for k := range local {
				local[k] = dht.KV{Key: uint64(k), Count: int64(pe.Rank() + 1)}
			}
			commbuf.Put(dht.CountKV(pe, local, mode))
		})
		name := "direct"
		if mode == dht.RouteHypercube {
			name = "hypercube"
		}
		t.Rows = append(t.Rows, append([]string{name, ms(meas.wall)}, stdCols(meas)...))
	}
	return t
}

// AblationRedistribution measures Section 9's claim: the adaptive plan
// moves only the imbalance, the random-reallocation baseline moves
// everything, at increasing skew.
func AblationRedistribution(p, perPE int, seed int64) Table {
	t := Table{
		Title:  fmt.Sprintf("Ablation — data redistribution volume (p=%d, n/p=%d)", p, perPE),
		Notes:  "skew = fraction of the data concentrated on one PE; volume in total words moved",
		Header: []string{"skew", "adaptive words", "naive words", "ratio"},
	}
	for _, skewPct := range []int{0, 10, 50, 100} {
		counts := make([]int64, p)
		total := int64(p * perPE)
		hot := total * int64(skewPct) / 100
		rest := (total - hot) / int64(p)
		for i := range counts {
			counts[i] = rest
		}
		counts[0] += hot + (total - hot - rest*int64(p))
		run := func(naive bool) int64 {
			m := comm.NewMachine(comm.DefaultConfig(p))
			m.MustRun(func(pe *comm.PE) {
				local := make([]uint64, counts[pe.Rank()])
				if naive {
					redist.NaiveExchange(pe, local, xrand.NewPE(seed, pe.Rank()))
				} else {
					redist.Balance(pe, local)
				}
			})
			return m.Stats().TotalWords
		}
		adaptive, naive := run(false), run(true)
		ratio := "-"
		if adaptive > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(naive)/float64(adaptive))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%%", skewPct),
			fmt.Sprintf("%d", adaptive),
			fmt.Sprintf("%d", naive),
			ratio,
		})
	}
	return t
}

// CollectivesScaling validates the substrate itself: bottleneck startup
// counts of the core collectives must grow logarithmically in p.
func CollectivesScaling(pList []int) Table {
	t := Table{
		Title:  "Substrate — collective startup scaling (expect O(log p))",
		Header: []string{"p", "bcast", "allreduce", "scan", "allgather", "hypercube a2a"},
	}
	for _, p := range pList {
		m := comm.NewMachine(comm.DefaultConfig(p))
		startups := func(body func(pe *comm.PE)) int64 {
			meas := runMeasured(m, body)
			return meas.stats.MaxSends
		}
		b := startups(func(pe *comm.PE) { collBroadcast(pe) })
		a := startups(func(pe *comm.PE) { collAllReduce(pe) })
		s := startups(func(pe *comm.PE) { collScan(pe) })
		g := startups(func(pe *comm.PE) { collAllGather(pe) })
		h := startups(func(pe *comm.PE) { collHyperA2A(pe) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", b), fmt.Sprintf("%d", a), fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", g), fmt.Sprintf("%d", h),
		})
	}
	return t
}
