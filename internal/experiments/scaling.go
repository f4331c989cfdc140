package experiments

import (
	"fmt"
	"runtime"
	"time"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/mtopk"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// The scaling suite: the O(log p) collective set, the chunked all-gather,
// and Table-1 unsorted selection at p = 256…131072 — PE
// counts where the paper's O(α log p) startup bounds become visible. A
// machine is O(p) memory at any of them (comm.MachineBytes; 131072 PEs
// are tens of MB), so nothing is refused for the machine's sake. The
// gather workload has its own guard: every all-gather moves p²·m words in
// aggregate, a host-time budget recorded as a skipped row when it trips.
//
// Each entry also records the scheduler width w and the process goroutine
// count measured while the machine is resident — goroutines do not scale
// with p.

// ScalingRow is one entry of the scaling suite: per-op host time, the
// bottleneck words and startups per PE, the modeled clock, the measured
// live-heap cost of the machine, the scheduler width and the resident
// goroutine count with the machine live. Skipped says why a configuration
// was refused; it then has no numbers.
type ScalingRow struct {
	Name, Skipped                     string
	P, Workers, Goroutines            int
	NsPerOp, MachineBytes             float64
	WordsPerPE, StartsPerPE, MaxClock float64
}

// scalingGatherChunk is the chunked collectives' block window c: per-PE
// gather memory is O(m·c) and the ring startup count p/c − 1.
const scalingGatherChunk = 64

// scalingGatherMaxMoved caps the gather workload by aggregate data
// movement (p² blocks of gatherBlockLen words): 3·2^30 ≈ 3.2e9 moved
// words ≈ 26 GB of memcpy per op is the most this harness spends on one
// configuration. p = 16384 with 4-word blocks moves ≈ 1.07e9 words and
// runs; p = 65536 (≈ 1.7e10) is recorded as skipped.
const scalingGatherMaxMoved int64 = 3 << 30

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

// scalingCollectivesBody is one op of the collective scaling workload:
// the O(log p)-startup collectives (broadcast, all-reduce, prefix sum,
// barrier) whose memory footprint stays O(p) at any scale.
func scalingCollectivesBody(pe *comm.PE) {
	coll.Broadcast(pe, 0, []int64{1, 2, 3, 4})
	coll.AllReduceScalar(pe, int64(pe.Rank()), func(a, b int64) int64 { return a + b })
	coll.ExScanSum(pe, int64(pe.Rank()))
	coll.Barrier(pe)
}

// sumInt64 is the reduction operator of the scaling workloads
// (package-level, so stepper factories allocate no closure per op).
func sumInt64(a, b int64) int64 { return a + b }

// scalingCollectivesStart is the continuation form of the same op — the
// identical message schedule (words/PE, startups/PE and modeled clock
// are pinned equal by the differential suite) run through
// comm.RunAsync, so a PE waiting mid-collective suspends as data instead
// of keeping a coroutine stack. At large p this is where the coroutine
// per PE — the dominant host cost of the blocking form — disappears; the suite
// records both forms so the A/B is in every report. Since PR 5 the
// stepper state (and the comm.SeqP composition) is pooled per PE, so the
// op allocates like the blocking form instead of feeding the GC ~1.2 KB
// per PE per op — the drag that ate the continuation win at p = 131072.
func scalingCollectivesStart(pe *comm.PE) comm.Stepper {
	return comm.SeqP(pe,
		coll.BroadcastStep(pe, 0, []int64{1, 2, 3, 4}, nil),
		coll.AllReduceScalarStep(pe, int64(pe.Rank()), sumInt64, nil),
		coll.ExScanSumStep(pe, int64(pe.Rank()), nil),
		coll.BarrierStep(pe),
	)
}

// gatherBlockLen is the per-PE block size of the gather workload.
const gatherBlockLen = 4

// scalingGatherBody is one op of the chunked-gather workload: every PE
// receives every other PE's block through the streaming all-gather
// (visited, never materialized — per-PE memory O(m·chunk) instead of the
// O(p·m) that kept gathers out of the suite). The visit reads every
// block.
func scalingGatherBody(pe *comm.PE) {
	var block [gatherBlockLen]int64
	for i := range block {
		block[i] = int64(pe.Rank() + i)
	}
	var sum int64
	coll.AllGatherChunked(pe, block[:], scalingGatherChunk, func(src int, b []int64) {
		sum += b[0]
	})
}

// scalingGatherStart is the continuation form of the same op.
func scalingGatherStart(pe *comm.PE) comm.Stepper {
	block := make([]int64, gatherBlockLen)
	for i := range block {
		block[i] = int64(pe.Rank() + i)
	}
	var sum int64
	return coll.AllGatherChunkedStep(pe, block, scalingGatherChunk, func(src int, b []int64) {
		sum += b[0]
	})
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
// the O(α log p) trends and the chunked gather are visible, small
// enough that a CI smoke finishes in tens of seconds.
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
	gatherName := fmt.Sprintf("Scaling/GatherChunked/p=%d", p)
	selName := fmt.Sprintf("Scaling/Table1Selection/p=%d", p)
	mtopkName := fmt.Sprintf("Scaling/MtopkDTA/p=%d", p)
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

	// Gather workload: refuse what must be refused, loudly. The
	// materializing all-gather would hold p blocks on every PE; the
	// chunked one moves the same p² blocks through O(m·chunk) windows,
	// bounded here only by host time.
	matBytes := int64(p) * int64(p) * gatherBlockLen * 8
	moved := int64(p) * int64(p) * gatherBlockLen
	if moved > scalingGatherMaxMoved {
		r := res(gatherName)
		r.Skipped = fmt.Sprintf(
			"all-gather moves p²·m = %.1e words per op; over the harness host-time budget (materializing variant would also need %.1f GiB of results)",
			float64(moved), float64(matBytes)/(1<<30))
		out = append(out, r)
	} else {
		iters := 3
		if quick || moved > scalingGatherMaxMoved/8 {
			iters = 1
		}
		ns, s = measureScalingAsync(m, iters, scalingGatherStart)
		out = append(out, fill(res(gatherName), ns, s))
		if !quick {
			ns, s = measureScaling(m, iters, scalingGatherBody)
			out = append(out, fill(res(gatherName+"/blocking"), ns, s))
		}
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

	// Multicriteria threshold algorithm and sampling heavy hitters at
	// scale, tiny per-PE instances (the axis of interest is the collective
	// critical path over p, not local scan work).
	datas := make([]*mtopk.Data, p)
	freqLocals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		datas[r] = mtopk.NewData(mtopk.GenObjects(xrand.NewPE(7, r), 4, 2, 1+uint64(r)*4), 2)
		rng := xrand.NewPE(11, r)
		sh := make([]uint64, 16)
		for i := range sh {
			u := rng.Uint64() % 16
			sh[i] = rng.Uint64() % (u + 1)
		}
		freqLocals[r] = sh
	}
	freqParams := freq.Params{K: 8, Eps: 0.05, Delta: 0.01}
	ns, s = measureScalingAsync(m, scalingRunIters(3, quick), func(pe *comm.PE) comm.Stepper {
		return mtopk.DTAStep(pe, datas[pe.Rank()], mtopk.SumScore, 8, xrand.NewPE(23, pe.Rank()), nil)
	})
	out = append(out, fill(res(mtopkName), ns, s))
	ns, s = measureScalingAsync(m, scalingRunIters(3, quick), func(pe *comm.PE) comm.Stepper {
		return freq.PACStep(pe, freqLocals[pe.Rank()], freqParams, xrand.NewPE(29, pe.Rank()), nil)
	})
	out = append(out, fill(res(freqName), ns, s))
	if !quick {
		ns, s = measureScaling(m, blockIters, func(pe *comm.PE) {
			mtopk.DTA(pe, datas[pe.Rank()], mtopk.SumScore, 8, xrand.NewPE(23, pe.Rank()))
		})
		out = append(out, fill(res(mtopkName+"/blocking"), ns, s))
		ns, s = measureScaling(m, blockIters, func(pe *comm.PE) {
			freq.PAC(pe, freqLocals[pe.Rank()], freqParams, xrand.NewPE(29, pe.Rank()))
		})
		out = append(out, fill(res(freqName+"/blocking"), ns, s))
	}
	return out
}

// ScalingTable renders the scaling suite as a human-readable experiment
// table for `topkbench -exp scaling` (quick selects the capped CI tier;
// callers pass pmax ≤ ScalingQuickPMax alongside it).
func ScalingTable(pmax int, quick bool) Table {
	t := Table{
		Title: "Scaling: collectives, the chunked all-gather and Table-1 selection at large p, continuation-scheduled with blocking A/B twins",
		Notes: fmt.Sprintf("collectives op = broadcast + all-reduce + prefix sum + barrier; all primaries run continuation-scheduled via comm.RunAsync on pooled stepper state, /blocking twins = the same op as blocking bodies, a coroutine per PE\ngather op: chunked all-gather (m=%d, chunk=%d), movement p²·m\nselection: sel.KthStep, k=n/2, n/p=2^10 through p=2^14 then reduced (scalingSelPerPE); goroutines = resident process count with the machine live (w = scheduler width)",
			gatherBlockLen, scalingGatherChunk),
		Header: []string{"workload", "p", "ns/op", "words/PE", "start/PE", "T_model", "machine MB", "w", "goroutines"},
	}
	for _, r := range ScalingSuite(ScalingPList(pmax), quick) {
		if r.Skipped != "" {
			t.Rows = append(t.Rows, []string{r.Name, fmt.Sprint(r.P), "—", "—", "—", "—", r.Skipped, "—", "—"})
			continue
		}
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
