package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// The scaling suite: one selection level's collectives, Table-1 unsorted
// selection, the sorted selection serve answers Kth with and sampling
// heavy hitters at p = 256…131072 — PE counts where the paper's
// O(α log p) startup bounds become visible. A machine is O(p) memory at
// any of them (comm.MachineBytes; 131072 PEs are tens of MB).
//
// Each entry also records the scheduler width w and the process goroutine
// count measured while the machine is resident — goroutines do not scale
// with p.

// ScalingRow is one entry of the scaling suite: per-op host time, the
// bottleneck words and startups per PE, the modeled clock, the measured
// live-heap cost of the machine, the scheduler width and the resident
// goroutine count with the machine live.
type ScalingRow struct {
	Name                              string
	P, Workers, Goroutines            int
	NsPerOp, MachineBytes             float64
	WordsPerPE, StartsPerPE, MaxClock float64
}

// ScalingPList returns the scaling-suite PE counts up to pmax.
func ScalingPList(pmax int) []int {
	var out []int
	for _, p := range []int{256, 1024, 4096, 16384, 65536, 131072} {
		if p <= pmax {
			out = append(out, p)
		}
	}
	return out
}

// scalingSelPerPE returns the selection workload's per-PE input size:
// 2^10 through p = 16384 (so those entries stay comparable with earlier
// reports), halved stepwise above so the p·perPE input plus the per-PE
// partition scratch stays inside the harness budget (131072 × 1024 × 8 B
// would be 1 GiB of input alone, doubled by scratch).
func scalingSelPerPE(p int) int {
	switch {
	case p <= 1<<14:
		return 1 << 10
	case p <= 1<<16:
		return 1 << 8
	default:
		return 1 << 7
	}
}

// scalingLevelHdr is the collectives op's up-sweep header: two counters,
// as a selection level sends them (read-only, shared by every PE).
var scalingLevelHdr = []int64{2, 1}

// sumInt64 is the reduction operator of the scaling workloads
// (package-level, so stepper factories allocate no closure per op).
func sumInt64(a, b int64) int64 { return a + b }

// scalingCollectivesBody is one op of the collective scaling workload as
// a blocking body: the collectives one selection level composes (sel's
// kthStep) — the all-reduce of a size, the binomial up-sweep of a 2-word
// header with an empty block, and the broadcast of one value. O(log p)
// startups per PE, O(p) memory at any scale.
func scalingCollectivesBody(pe *comm.PE) {
	coll.AllReduceScalar(pe, int64(pe.Rank()), sumInt64)
	comm.RunSteps(pe, coll.ReduceConcatStep[int64](pe, 0, scalingLevelHdr, nil, nil))
	coll.BroadcastScalar(pe, 0, int64(pe.Rank()))
}

// scalingCollectivesStart is the continuation form of the same op — the
// identical message schedule run through comm.RunAsync, so a PE waiting
// mid-collective suspends as data instead of keeping a coroutine stack.
// At large p this is where the coroutine per PE, the dominant host cost
// of the blocking form, disappears; the suite records both forms so the
// A/B is in every report. The stepper state and the comm.SeqP
// composition are pooled per PE, so the op allocates nothing per PE.
func scalingCollectivesStart(pe *comm.PE) comm.Stepper {
	return comm.SeqP(pe,
		coll.AllReduceScalarStep(pe, int64(pe.Rank()), sumInt64, nil),
		coll.ReduceConcatStep[int64](pe, 0, scalingLevelHdr, nil, nil),
		coll.BroadcastScalarStep(pe, 0, int64(pe.Rank()), nil),
	)
}

// heapLive settles the heap and returns live bytes. Two GC cycles: the
// first runs finalizers of earlier machines (releasing their scheduler
// goroutines), the second collects what the finalizers unpinned.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureScaling times iters runs of body on m (after one warmup run)
// and fills the communication metrics from the machine's stats.
func measureScaling(m *comm.Machine, iters int, body func(pe *comm.PE)) (nsPerOp float64, s comm.Stats) {
	run := func() { m.MustRun(body) }
	return measureScalingRuns(m, iters, run)
}

// measureScalingAsync is measureScaling for continuation bodies driven
// through RunAsync.
func measureScalingAsync(m *comm.Machine, iters int, start func(pe *comm.PE) comm.Stepper) (nsPerOp float64, s comm.Stats) {
	run := func() { m.MustRunAsync(start) }
	return measureScalingRuns(m, iters, run)
}

func measureScalingRuns(m *comm.Machine, iters int, run func()) (nsPerOp float64, s comm.Stats) {
	run() // warmup: scheduler spawn, pool and scratch warm
	// Settle the heap before timing: by this point in a long suite process
	// the allocator carries earlier configurations' garbage and pool
	// retention, which otherwise bleeds GC time into whichever workload
	// runs first (the continuation entries allocate their stepper state
	// per op and are the most exposed).
	runtime.GC()
	m.ResetStats()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		run()
	}
	elapsed := time.Since(t0)
	s = m.Stats()
	s.TotalWords /= int64(iters)
	s.TotalSends /= int64(iters)
	s.MaxSentWords /= int64(iters)
	s.MaxRecvWords /= int64(iters)
	s.MaxSends /= int64(iters)
	s.MaxClock /= float64(iters)
	return float64(elapsed.Nanoseconds()) / float64(iters), s
}

// residentGoroutines waits briefly for the goroutines of a blocking run
// (one per PE body) to retire and returns the settled process goroutine count —
// the number a resident machine pins between runs.
func residentGoroutines(bound int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) && n > bound {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// ScalingQuickPMax caps the -quick tier of the suite: large enough that
// the O(α log p) trends are visible, small enough that a CI smoke
// finishes in tens of seconds.
const ScalingQuickPMax = 4096

// ScalingSuite runs the scaling workloads for every p in pList. quick
// selects the CI tier: runs/op drop to 1 and the blocking A/B twins are
// skipped (callers should also cap pList at ScalingQuickPMax).
func ScalingSuite(pList []int, quick bool) []ScalingRow {
	var out []ScalingRow
	for _, p := range pList {
		out = append(out, scalingRun(p, quick)...)
	}
	return out
}

// scalingRunIters scales a workload's measured runs/op down for the
// quick tier.
func scalingRunIters(iters int, quick bool) int {
	if quick {
		return 1
	}
	return iters
}

func scalingRun(p int, quick bool) []ScalingRow {
	cfg := comm.DefaultConfig(p)
	collName := fmt.Sprintf("Scaling/Collectives/p=%d", p)
	selName := fmt.Sprintf("Scaling/Table1Selection/p=%d", p)
	sortedName := fmt.Sprintf("Scaling/SortedSelection/p=%d", p)
	freqName := fmt.Sprintf("Scaling/FreqPAC/p=%d", p)
	res := func(name string) ScalingRow {
		return ScalingRow{Name: name, P: p, Workers: comm.SchedWorkers(cfg)}
	}

	baseline := runtime.NumGoroutine()
	heapBefore := heapLive()
	m := comm.NewMachine(cfg)
	// Signed delta clamped at zero: the first GC may also reclaim garbage
	// from earlier configurations, which would underflow an unsigned diff.
	machineBytes := max(float64(int64(heapLive())-int64(heapBefore)), 0)
	defer m.Close()

	fill := func(r ScalingRow, ns float64, s comm.Stats) ScalingRow {
		r.MachineBytes = machineBytes
		r.NsPerOp = ns
		r.WordsPerPE = float64(s.BottleneckWords())
		r.StartsPerPE = float64(s.MaxSends)
		r.MaxClock = s.MaxClock
		// Goroutine residency is the tentpole claim: measured on the live
		// process while the machine (which has just run workloads that
		// suspended thousands of PE bodies) is still resident.
		r.Goroutines = residentGoroutines(baseline + r.Workers + 2)
		return r
	}
	// blockIters is the runs/op of the "/blocking" twins: the same op
	// through blocking bodies, a coroutine per PE, skipped in the quick
	// tier.
	blockIters := 3
	if p >= 1<<16 {
		blockIters = 1
	}

	var out []ScalingRow
	// Every primary entry runs the continuation form (the async API is how
	// collectives are meant to run at scale); its twin follows it.
	ns, s := measureScalingAsync(m, scalingRunIters(5, quick), scalingCollectivesStart)
	out = append(out, fill(res(collName), ns, s))
	if !quick {
		ns, s = measureScaling(m, blockIters, scalingCollectivesBody)
		out = append(out, fill(res(collName+"/blocking"), ns, s))
	}

	// Table-1 unsorted selection: the full selection skeleton
	// continuation-scheduled (sel.KthStep under comm.RunAsync — the whole
	// Table-1 pipeline at O(w) mid-run goroutines). Fixed pivot seed: every
	// measured run takes the same communication path, so the per-op stats
	// are exact rather than averaged estimates.
	perPE := scalingSelPerPE(p)
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(3, r), perPE, 12)
	}
	n := int64(p) * int64(perPE)
	ns, s = measureScalingAsync(m, scalingRunIters(3, quick), func(pe *comm.PE) comm.Stepper {
		return sel.KthStep(pe, locals[pe.Rank()], n/2, xrand.NewPE(17, pe.Rank()), nil)
	})
	out = append(out, fill(res(selName), ns, s))
	if !quick {
		ns, s = measureScaling(m, blockIters, func(pe *comm.PE) {
			sel.Kth(pe, locals[pe.Rank()], n/2, xrand.NewPE(17, pe.Rank()))
		})
		out = append(out, fill(res(selName+"/blocking"), ns, s))
	}

	// Sorted selection, the form serve answers Kth with (sel.KthSortedStep
	// under comm.RunAsync), on the same keys, now sorted in place on every
	// PE; its twin drives the same stepper inside a blocking body.
	for _, l := range locals {
		slices.Sort(l)
	}
	ns, s = measureScalingAsync(m, scalingRunIters(3, quick), func(pe *comm.PE) comm.Stepper {
		return sel.KthSortedStep(pe, locals[pe.Rank()], n, n/2, xrand.NewPE(19, pe.Rank()), nil)
	})
	out = append(out, fill(res(sortedName), ns, s))
	if !quick {
		ns, s = measureScaling(m, blockIters, func(pe *comm.PE) {
			comm.RunSteps(pe, sel.KthSortedStep(pe, locals[pe.Rank()], n, n/2, xrand.NewPE(19, pe.Rank()), nil))
		})
		out = append(out, fill(res(sortedName+"/blocking"), ns, s))
	}

	// Sampling heavy hitters at scale, tiny per-PE instances (the axis of
	// interest is the collective critical path over p, not local scan
	// work).
	freqLocals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		rng := xrand.NewPE(11, r)
		sh := make([]uint64, 16)
		for i := range sh {
			u := rng.Uint64() % 16
			sh[i] = rng.Uint64() % (u + 1)
		}
		freqLocals[r] = sh
	}
	freqParams := freq.Params{K: 8, Eps: 0.05, Delta: 0.01}
	ns, s = measureScaling(m, scalingRunIters(3, quick), func(pe *comm.PE) {
		freq.PAC(pe, freqLocals[pe.Rank()], freqParams, xrand.NewPE(29, pe.Rank()))
	})
	out = append(out, fill(res(freqName), ns, s))
	return out
}

// ScalingTable renders the scaling suite as a human-readable experiment
// table for `topkbench -exp scaling` (quick selects the capped CI tier;
// callers pass pmax ≤ ScalingQuickPMax alongside it).
func ScalingTable(pmax int, quick bool) Table {
	t := Table{
		Title:  "Scaling: collectives, Table-1 and sorted selection and heavy hitters at large p, selections and collectives continuation-scheduled with blocking A/B twins",
		Notes:  "collectives op = one selection level's collectives: all-reduce of a size + up-sweep of a 2-word header with an empty block + broadcast of a value; the collectives and selection primaries run continuation-scheduled via comm.RunAsync on pooled stepper state, /blocking twins = the same op as blocking bodies, a coroutine per PE\nselection: sel.KthStep, k=n/2, n/p=2^10 through p=2^14 then reduced (scalingSelPerPE); sorted selection: sel.KthSortedStep (serve's Kth) on the same keys sorted per PE, n known, k=n/2\nheavy hitters: freq.PAC as blocking bodies, a coroutine per PE (serve's TopKFreq runs it as a nested body), 16 keys per PE, k=8; goroutines = resident process count with the machine live (w = scheduler width)",
		Header: []string{"workload", "p", "ns/op", "words/PE", "start/PE", "T_model", "machine MB", "w", "goroutines"},
	}
	for _, r := range ScalingSuite(ScalingPList(pmax), quick) {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprint(r.P),
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.WordsPerPE),
			fmt.Sprintf("%.0f", r.StartsPerPE),
			modelMs(r.MaxClock),
			fmt.Sprintf("%.2f", r.MachineBytes/(1<<20)),
			fmt.Sprint(r.Workers),
			fmt.Sprint(r.Goroutines),
		})
	}
	return t
}
