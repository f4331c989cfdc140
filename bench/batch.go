package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"time"

	"commtopk/internal/agg"
	"commtopk/internal/bpq"
	"commtopk/internal/comm"
	"commtopk/internal/core"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/mtopk"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

const (
	batchP       = 16 // w = min(8·GOMAXPROCS, p) = p: blocking bodies never hand a shard off
	warmupRounds = 3
	// roundVariants is how many variants of its input a workload cycles
	// through, round by round. The variants have the same answers (the
	// per-PE inputs rotated by one PE per round; for wire, the next
	// program seed), but send the randomised algorithms down different
	// pivot walks, so the counters and times of one run average over
	// sixteen walks instead of reporting one. The deterministic counters
	// are averaged over the first full cycle of timed rounds.
	roundVariants = 16
)

// call is one façade call of a batch round: the layer it lands in, a
// function that runs it on a variant of the input, and one that checks the
// answer, returning "" or what was wrong. Only run is timed.
type call struct {
	layer, name string
	run         func(variant int) error
	check       func(variant int) string
}

// rotate returns parts shifted by one PE per variant: PE r gets what PE
// r+variant held. The union, and with it every oracle, is unchanged.
func rotate[T any](parts [][]T, variant int) [][]T {
	out := make([][]T, len(parts))
	for r := range out {
		out[r] = parts[(r+variant)%len(parts)]
	}
	return out
}

// callStat is what one call of one round measured.
type callStat struct {
	ms    float64
	stats comm.Stats
}

// roundRunner runs rounds of calls on one cluster.
type roundRunner struct {
	c        *runCtx
	stats    func() comm.Stats
	reset    func()
	calls    []call
	variants int // roundVariants, fewer in a smoke run
	rounds   int64
	samples  [][]callStat // per timed round, per call
	traced   []bool       // per timed round
}

// round runs every call once. Each call is its own SPMD program, so the
// communication counters are reset before it and read after it.
func (rr *roundRunner) round(ph *phaseCount, phase string) ([]callStat, bool, error) {
	rr.c.wd.begin()
	defer rr.c.wd.end()
	variant := int(rr.rounds) % rr.variants
	rr.rounds++
	ph.attempt()
	root := rr.c.tr.begin(rr.rounds, 0, phase, "bench", "round")
	out := make([]callStat, len(rr.calls))
	ok := true
	var words, sends int64
	for i, cl := range rr.calls {
		rr.reset()
		sp := rr.c.tr.begin(rr.rounds, root.ID, phase, cl.layer, cl.name)
		t0 := time.Now()
		err := cl.run(variant)
		out[i].ms = ms(time.Since(t0))
		out[i].stats = rr.stats()
		rr.c.tr.endCounted(sp, out[i].stats.BottleneckWords(), out[i].stats.MaxSends)
		if err != nil {
			rr.c.tr.end(root)
			return nil, false, fmt.Errorf("bench: %s.%s: %w", cl.layer, cl.name, err)
		}
		words += out[i].stats.BottleneckWords()
		sends += out[i].stats.MaxSends
		if bad := cl.check(variant); bad != "" && ok {
			ok = false
			rr.c.fail(ph, "%s: %s.%s: %s", phase, cl.layer, cl.name, bad)
		}
	}
	rr.c.tr.endCounted(root, words, sends)
	if ok {
		ph.success()
	}
	return out, ok, nil
}

// timedRounds runs rounds for dur, and at least one cycle of variants.
// In a traced run every other round is untraced, so one process yields
// both round times.
func (rr *roundRunner) timedRounds(dur time.Duration) error {
	ph := rr.c.phase("rounds", true)
	rr.rounds = 0 // the timed rounds start at variant 0, whatever the warm-up ran
	deadline := time.Now().Add(dur)
	for i := 0; i < rr.variants || time.Now().Before(deadline); i++ {
		traced := rr.c.tr != nil && i%2 == 1
		if rr.c.tr != nil {
			rr.c.tr.on.Store(traced)
		}
		out, ok, err := rr.round(ph, "rounds")
		if err != nil {
			return err
		}
		if ok {
			rr.samples = append(rr.samples, out)
			rr.traced = append(rr.traced, traced)
		}
	}
	if rr.c.tr != nil {
		rr.c.tr.on.Store(true)
	}
	return nil
}

// roundTimes returns the time of every timed round (the sum of its calls;
// the oracle checks between them are not part of it) that passes keep.
func (rr *roundRunner) roundTimes(keep func(traced bool) bool) []float64 {
	var out []float64
	for r, calls := range rr.samples {
		if keep != nil && !keep(rr.traced[r]) {
			continue
		}
		var t float64
		for _, cs := range calls {
			t += cs.ms
		}
		out = append(out, t)
	}
	return out
}

// callTimes returns the times of call i over the timed rounds.
func (rr *roundRunner) callTimes(i int) []float64 {
	out := make([]float64, len(rr.samples))
	for r, calls := range rr.samples {
		out[r] = calls[i].ms
	}
	return out
}

// exact sums f over every call of the first cycle of timed rounds and
// divides by the rounds: the per-round counter, repeatable to the digit.
func (rr *roundRunner) exact(f func(comm.Stats) float64) float64 {
	var t float64
	for i := range rr.calls {
		t += rr.exactCall(i, f)
	}
	return t
}

// exactCall is exact for call i alone.
func (rr *roundRunner) exactCall(i int, f func(comm.Stats) float64) float64 {
	var t float64
	n := min(rr.variants, len(rr.samples))
	for _, calls := range rr.samples[:n] {
		t += f(calls[i].stats)
	}
	return t / float64(max(n, 1))
}

func bottleneckWords(s comm.Stats) float64 { return float64(s.BottleneckWords()) }
func maxSends(s comm.Stats) float64        { return float64(s.MaxSends) }
func maxClock(s comm.Stats) float64        { return s.MaxClock }

// setEndToEnd sets the gated metrics every batch and wire workload shares.
func (rr *roundRunner) setEndToEnd() {
	c := rr.c
	times := rr.roundTimes(nil)
	c.set("op_ms_p50", median(times), len(times))
	c.set("ops_per_s", float64(len(times))/(sum(times)/1e3), len(times))
	// A batch has no arrival schedule: its latency metrics are the round
	// time distribution, by the same median-of-segments rule as serving.
	c.set("lat_ms_p50", segmentedPercentile(times, latSegments, 0.50), len(times))
	c.set("lat_ms_p90", segmentedPercentile(times, latSegments, 0.90), len(times))
	c.set("words_per_op", rr.exact(bottleneckWords), rr.variants)
	c.set("startups_per_op", rr.exact(maxSends), rr.variants)
	setOKFrac(c)
}

// setProc sets the per-workload Go runtime metrics of a traced batch run.
// goroutines is how many the measured cluster holds after its rounds.
func (rr *roundRunner) setProc(before, after procSnap, childCPU float64, goroutines int) {
	c := rr.c
	rounds := float64(max(len(rr.samples), 1))
	c.set("proc.cpu_s_per_op", (after.cpuS-before.cpuS+childCPU)/rounds, len(rr.samples))
	c.set("proc.allocs_per_op", float64(after.mallocs-before.mallocs)/rounds, len(rr.samples))
	c.set("proc.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, 0)
	c.set("proc.goroutines_peak", float64(goroutines), 0)
	untraced := rr.roundTimes(func(tr bool) bool { return !tr })
	traced := rr.roundTimes(func(tr bool) bool { return tr })
	c.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1, len(traced))
	c.set("comm.model_clock_per_op", rr.exact(maxClock), rr.variants)
}

// runBatch is the shared body of the two core.Cluster workloads: build and
// warm the cluster setupReps times, run the timed rounds, set the metrics.
func runBatch(c *runCtx, p int, calls func(cl *core.Cluster) []call, layerMetrics func(rr *roundRunner)) error {
	var rr *roundRunner
	var setupS []float64
	var idleGoroutines int // before the measured cluster is built
	warm := c.phase("warmup", true)
	for rep := 0; rep < c.opts.reps(setupReps, 2); rep++ {
		idleGoroutines = runtime.NumGoroutine()
		t := time.Now()
		cl := core.New(p)
		rr = &roundRunner{c: c, stats: cl.Stats, reset: cl.ResetStats, calls: calls(cl), variants: c.opts.reps(roundVariants, 4)}
		for i := 0; i < c.opts.reps(warmupRounds, 1); i++ {
			if _, _, err := rr.round(warm, "warmup"); err != nil {
				return err
			}
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	c.machine("core.Cluster", p, comm.SchedWorkers(comm.DefaultConfig(p)))
	c.set("setup_s", median(setupS), len(setupS))

	before := snapProc()
	if err := rr.timedRounds(c.share(1)); err != nil {
		return err
	}
	after := snapProc()
	if !c.opts.trace {
		rr.setEndToEnd()
		c.set("peak_rss_mb", peakRSSMB(), 0)
		return nil
	}
	rr.setProc(before, after, 0, runtime.NumGoroutine()-idleGoroutines)
	layerMetrics(rr)
	return runProbes(c)
}

// ---------------------------------------------------------------------------
// batch-select
// ---------------------------------------------------------------------------

const (
	selectPerPE   = 1 << 17
	selectLogU    = 20
	selectTopK    = 1024
	churnInitial  = 1 << 10 // keys per PE inserted at the start of a churn
	churnBatch    = 64      // per PE: DeleteMin removes churnBatch·p, refill inserts churnBatch per PE
	churnDeletes  = 4
	churnSeed     = 11 // the queue's own seed (treap priorities, pivots)
	selectKthSeed = 23
	msSelectSeed  = 29
)

// churnKeys is the seeded key sequence PE rank feeds the queue.
func churnKeys(seed int64, rank, p, n int) []uint64 {
	rng := xrand.NewPE(seed, rank)
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = bpq.MakeUnique(uint32(rng.Uint64()>>40), uint32(i), rank, p)
	}
	return ks
}

func runBatchSelect(c *runCtx) error {
	p := batchP
	perPE := c.opts.div(selectPerPE, 256)
	topK := int64(c.opts.div(selectTopK, 16))
	logU := selectLogU - bits.Len(uint(c.opts.shrink)) + 1 // the universe shrinks with the input
	initial := c.opts.div(churnInitial, 4*churnBatch)

	t0 := time.Now()
	locals := make([][]uint64, p)
	sortedLocals := make([][]uint64, p) // globally unique, locally sorted: MSSelect's input
	var union, uniqueUnion []uint64
	for r := range locals {
		locals[r] = gen.SelectionInput(xrand.NewPE(c.opts.seed, r), perPE, logU)
		union = append(union, locals[r]...)
		// The paper's (v, x) tie-break: value in the high word, a globally
		// unique stamp in the low one.
		u := make([]uint64, perPE)
		for i, v := range locals[r] {
			u[i] = v<<32 | uint64(r)<<24 | uint64(i)
		}
		slices.Sort(u)
		sortedLocals[r] = u
		uniqueUnion = append(uniqueUnion, u...)
	}
	slices.Sort(union)
	slices.Sort(uniqueUnion)
	n := int64(len(union))
	// The churn's oracle: the same inserts and deletes on a sorted slice.
	perRankKeys := make([][]uint64, p)
	var model []uint64
	for r := range perRankKeys {
		perRankKeys[r] = churnKeys(c.opts.seed+1, r, p, initial+churnDeletes*churnBatch)
		model = append(model, perRankKeys[r][:initial]...)
	}
	wantBatches := make([][]uint64, churnDeletes)
	for d := range wantBatches {
		slices.Sort(model)
		cut := min(churnBatch*p, len(model))
		wantBatches[d] = slices.Clone(model[:cut])
		model = model[cut:]
		for r := range perRankKeys {
			model = append(model, perRankKeys[r][initial+d*churnBatch:initial+(d+1)*churnBatch]...)
		}
	}
	c.rep.InputGenS = time.Since(t0).Seconds()

	calls := func(cl *core.Cluster) []call {
		var topk []uint64
		kth := make([]uint64, p)
		msV := make([]uint64, p)
		msLE := make([]int, p)
		gotBatches := make([][][]uint64, p)
		return []call{
			{"sel", "smallestk",
				func(v int) (err error) { topk, err = cl.TopKSmallest(rotate(locals, v), topK); return },
				func(int) string {
					if !slices.Equal(topk, union[:topK]) {
						return fmt.Sprintf("TopKSmallest(%d) is not the sorted prefix", topK)
					}
					return ""
				}},
			{"sel", "kth",
				func(v int) error {
					in := rotate(locals, v)
					return cl.Run(func(pe *comm.PE) {
						kth[pe.Rank()] = sel.Kth(pe, in[pe.Rank()], n/2, xrand.NewPE(selectKthSeed, pe.Rank()))
					})
				},
				func(int) string {
					for r, v := range kth {
						if v != union[n/2-1] {
							return fmt.Sprintf("Kth(%d) on PE %d = %d, want %d", n/2, r, v, union[n/2-1])
						}
					}
					return ""
				}},
			{"sel", "msselect",
				func(v int) error {
					in := rotate(sortedLocals, v)
					return cl.Run(func(pe *comm.PE) {
						r := pe.Rank()
						msV[r], msLE[r] = sel.MSSelect[uint64](pe, sel.SliceSeq[uint64](in[r]), n/2, xrand.New(msSelectSeed))
					})
				},
				func(int) string {
					total := 0
					for r, v := range msV {
						if v != uniqueUnion[n/2-1] {
							return fmt.Sprintf("MSSelect(%d) on PE %d = %d, want %d", n/2, r, v, uniqueUnion[n/2-1])
						}
						total += msLE[r]
					}
					if int64(total) != n/2 {
						return fmt.Sprintf("MSSelect(%d): local prefix lengths sum to %d", n/2, total)
					}
					return ""
				}},
			{"bpq", "churn",
				func(v int) error {
					in := rotate(perRankKeys, v)
					return cl.Run(func(pe *comm.PE) {
						r := pe.Rank()
						keys := in[r]
						q := bpq.New[uint64](pe, churnSeed)
						q.InsertBulk(keys[:initial])
						got := make([][]uint64, churnDeletes)
						for d := range got {
							got[d] = q.DeleteMin(int64(churnBatch * p))
							q.InsertBulk(keys[initial+d*churnBatch : initial+(d+1)*churnBatch])
						}
						gotBatches[r] = got
					})
				},
				func(int) string {
					for d, want := range wantBatches {
						var got []uint64
						for r := range gotBatches {
							got = append(got, gotBatches[r][d]...)
						}
						slices.Sort(got)
						if !slices.Equal(got, want) {
							return fmt.Sprintf("DeleteMin #%d did not remove the %d smallest keys", d+1, len(want))
						}
					}
					return ""
				}},
		}
	}
	return runBatch(c, p, calls, func(rr *roundRunner) {
		for i, name := range []string{"sel.smallestk_ms_p50", "sel.kth_ms_p50", "sel.msselect_ms_p50", "bpq.churn_ms_p50"} {
			c.set(name, median(rr.callTimes(i)), len(rr.samples))
		}
	})
}

// ---------------------------------------------------------------------------
// batch-aggregate
// ---------------------------------------------------------------------------

const (
	aggPerPE     = 1 << 15
	aggUniverse  = 1 << 16
	aggK         = 32
	aggEps       = 0.01
	aggDelta     = 0.01
	mtopkPerPE   = 1 << 11
	mtopkCrit    = 4
	balanceHeavy = 4 // the first half of the PEs hold this many times the rest's load
)

// epsTilde is the paper's relative error of a top-k answer against the
// true values (counts or sums): the largest value left out minus the
// smallest value put in, as a share of total; 0 when nothing better was
// left out.
func epsTilde(truth []float64, output []uint64, total float64) float64 {
	in := make(map[uint64]bool, len(output))
	minIn := math.Inf(1)
	for _, k := range output {
		in[k] = true
		if int(k) >= len(truth) {
			return math.Inf(1)
		}
		minIn = min(minIn, truth[k])
	}
	maxOut := 0.0
	for k, v := range truth {
		if !in[uint64(k)] {
			maxOut = max(maxOut, v)
		}
	}
	return max(maxOut-minIn, 0) / total
}

// multisetHash is an order-independent fingerprint of xs.
func multisetHash(parts [][]uint64) (n int, sum, xor uint64) {
	for _, xs := range parts {
		n += len(xs)
		for _, x := range xs {
			h := (x + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
			h ^= h >> 29
			sum += h
			xor ^= h * 0x94d049bb133111eb
		}
	}
	return n, sum, xor
}

func runBatchAggregate(c *runCtx) error {
	p := batchP
	perPE := c.opts.div(aggPerPE, 512)
	universe := c.opts.div(aggUniverse, 1024)
	objsPerPE := c.opts.div(mtopkPerPE, 64)

	t0 := time.Now()
	z := gen.NewZipf(universe, 1)
	locals := make([][]uint64, p)
	keys := make([][]uint64, p)
	vals := make([][]float64, p)
	counts := make([]float64, universe+1)
	sums := make([]float64, universe+1)
	var totalCount, totalSum float64
	for r := 0; r < p; r++ {
		locals[r] = gen.FrequencyInput(xrand.NewPE(c.opts.seed, r), z, perPE)
		for _, x := range locals[r] {
			counts[x]++
		}
		totalCount += float64(len(locals[r]))
		keys[r], vals[r] = gen.WeightedInput(xrand.NewPE(c.opts.seed+1, r), z, perPE)
		for i, k := range keys[r] {
			sums[k] += vals[r][i]
			totalSum += vals[r][i]
		}
	}
	// Multicriteria: brute-force top-k over all objects by summed score.
	objects := make([][]mtopk.Object, p)
	var allHits []mtopk.Hit
	for r := 0; r < p; r++ {
		objects[r] = mtopk.GenObjects(xrand.NewPE(c.opts.seed+2, r), objsPerPE, mtopkCrit, 1+uint64(r*objsPerPE))
		for _, o := range objects[r] {
			allHits = append(allHits, mtopk.Hit{ID: o.ID, Score: mtopk.SumScore(o.Scores)})
		}
	}
	sort.Slice(allHits, func(i, j int) bool {
		if allHits[i].Score != allHits[j].Score {
			return allHits[i].Score > allHits[j].Score
		}
		return allHits[i].ID < allHits[j].ID
	})
	wantHits := allHits[:aggK]
	// BalanceLoad: the first half of the PEs hold balanceHeavy times as
	// much as the second half.
	skewed := make([][]uint64, p)
	light := perPE * 2 / (balanceHeavy + 1)
	for r := range skewed {
		size := light
		if r < p/2 {
			size = balanceHeavy * light
		}
		rng := xrand.NewPE(c.opts.seed+3, r)
		skewed[r] = make([]uint64, size)
		for i := range skewed[r] {
			skewed[r][i] = rng.Uint64()
		}
	}
	skewN, skewSum, skewXor := multisetHash(skewed)
	ceilLoad := (skewN + p - 1) / p
	c.rep.InputGenS = time.Since(t0).Seconds()

	// Sampling error grows as 1/√n: a shrunk input asks for an ε wider by
	// the same factor, which keeps the algorithms in the regime they run
	// in at full size.
	eps := aggEps * math.Sqrt(float64(c.opts.shrink))
	fp := freq.Params{K: aggK, Eps: eps, Delta: aggDelta}
	ap := agg.Params{K: aggK, Eps: eps, Delta: aggDelta}
	checkFreq := func(res freq.Result, exact bool) string {
		if len(res.Items) != aggK {
			return fmt.Sprintf("%d items, want %d", len(res.Items), aggK)
		}
		out := make([]uint64, len(res.Items))
		for i, it := range res.Items {
			out[i] = it.Key
			if exact && float64(it.Count) != counts[it.Key] {
				return fmt.Sprintf("key %d counted %d, true count %.0f", it.Key, it.Count, counts[it.Key])
			}
		}
		if exact && !res.Exact {
			return "result not marked exact"
		}
		if e := epsTilde(counts, out, totalCount); e > eps {
			return fmt.Sprintf("error %.5f exceeds eps %.5f", e, eps)
		}
		return ""
	}
	checkSums := func(res agg.Result, exact bool) string {
		if len(res.Items) != aggK {
			return fmt.Sprintf("%d items, want %d", len(res.Items), aggK)
		}
		out := make([]uint64, len(res.Items))
		for i, it := range res.Items {
			out[i] = it.Key
			if exact && math.Abs(it.Sum-sums[it.Key]) > 1e-6*math.Max(1, sums[it.Key]) {
				return fmt.Sprintf("key %d summed to %v, true sum %v", it.Key, it.Sum, sums[it.Key])
			}
		}
		if exact && !res.Exact {
			return "result not marked exact"
		}
		if e := epsTilde(sums, out, totalSum); e > eps {
			return fmt.Sprintf("error %.5f exceeds eps %.5f", e, eps)
		}
		return ""
	}

	calls := func(cl *core.Cluster) []call {
		var fres freq.Result
		var ares agg.Result
		var hits []mtopk.Hit
		var balanced [][]uint64
		return []call{
			{"freq", "pac",
				func(v int) (err error) { fres, err = cl.TopKFrequent(rotate(locals, v), fp, "pac"); return },
				func(int) string { return checkFreq(fres, false) }},
			{"freq", "ec",
				func(v int) (err error) { fres, err = cl.TopKFrequent(rotate(locals, v), fp, "ec"); return },
				func(int) string { return checkFreq(fres, true) }},
			{"agg", "pac",
				func(v int) (err error) {
					ares, err = cl.TopKSums(rotate(keys, v), rotate(vals, v), ap, false)
					return
				},
				func(int) string { return checkSums(ares, false) }},
			{"agg", "ecsum",
				func(v int) (err error) {
					ares, err = cl.TopKSums(rotate(keys, v), rotate(vals, v), ap, true)
					return
				},
				func(int) string { return checkSums(ares, true) }},
			{"mtopk", "topk",
				func(v int) (err error) {
					hits, err = cl.TopKMulticriteria(rotate(objects, v), mtopkCrit, mtopk.SumScore, aggK)
					return
				},
				func(int) string {
					if !slices.Equal(hits, wantHits) {
						return fmt.Sprintf("top-%d differs from the brute-force top-%d", aggK, aggK)
					}
					return ""
				}},
			{"redist", "balance",
				func(v int) (err error) { balanced, err = cl.BalanceLoad(rotate(skewed, v)); return },
				func(int) string {
					for r, part := range balanced {
						if len(part) > ceilLoad {
							return fmt.Sprintf("PE %d holds %d objects, more than ceil(n/p) = %d", r, len(part), ceilLoad)
						}
					}
					if n, s, x := multisetHash(balanced); n != skewN || s != skewSum || x != skewXor {
						return "balanced output is not the input multiset"
					}
					return ""
				}},
		}
	}
	return runBatch(c, p, calls, func(rr *roundRunner) {
		for i, name := range []string{"freq.pac", "freq.ec", "agg.pac", "agg.ecsum", "mtopk.topk", "redist.balance"} {
			c.set(name+"_ms_p50", median(rr.callTimes(i)), len(rr.samples))
		}
		c.set("freq.pac_words", rr.exactCall(0, bottleneckWords), rr.variants)
		c.set("freq.ec_words", rr.exactCall(1, bottleneckWords), rr.variants)
		c.set("agg.pac_words", rr.exactCall(2, bottleneckWords), rr.variants)
		c.set("agg.ecsum_words", rr.exactCall(3, bottleneckWords), rr.variants)
		c.set("mtopk.topk_startups", rr.exactCall(4, maxSends), rr.variants)
		c.set("redist.balance_words", rr.exactCall(5, bottleneckWords), rr.variants)
	})
}
