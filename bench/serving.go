package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"commtopk/internal/bpq"
	"commtopk/internal/comm"
	"commtopk/internal/sel"
	"commtopk/internal/serve"
	"commtopk/internal/xrand"
)

// serveConfig is the one server configuration every serving workload
// uses. No knob of the product is varied by the benchmark.
var serveConfig = serve.Config{MaxInflight: 8, QueueDepth: 256, BatchMax: 8, Seed: 77}

const (
	deleteMinBatch = 32 // every DeleteMin asks for this many elements
	satCallers     = 8  // closed-loop callers of the saturation phase
	satWindows     = 8  // ops_per_s is the median over this many windows
	latSegments    = 5  // open-loop percentiles: median over this many segments
	warmupOps      = 50
	traceBlock     = 20 // solo ops per block when alternating traced and untraced
)

// servingShape is one serving workload.
type servingShape struct {
	name  string
	p     int
	perPE int
	// mixed: globally unique keys, one op in four a DeleteMin.
	mixed bool
	// exactOps is the fixed number of solo ops words_per_op and
	// startups_per_op are taken over, so the counters repeat exactly
	// however many ops the host fits into the phase.
	exactOps int
	// r50 and r80 are the fixed open-loop arrival rates (1/s): about half
	// and four fifths of the reference host's saturation throughput.
	r50, r80 float64
}

var (
	servingFat   = servingShape{name: "serve-kth-fat", p: 16, perPE: 1 << 16, exactOps: 100, r50: 70, r80: 115}
	servingThin  = servingShape{name: "serve-kth-thin", p: 64, perPE: 1 << 8, exactOps: 300, r50: 150, r80: 250}
	servingMixed = servingShape{name: "serve-mixed", p: 16, perPE: 1 << 13, mixed: true, exactOps: 500, r50: 300, r80: 480}
)

// servingInput is the generated data set and its oracle.
type servingInput struct {
	shards [][]uint64
	sorted []uint64 // the union, ascending: rank k is sorted[k-1]
}

func genServingInput(opts options, sh servingShape) *servingInput {
	perPE := opts.div(sh.perPE, 64)
	in := &servingInput{shards: make([][]uint64, sh.p)}
	for r := range in.shards {
		rng := xrand.NewPE(opts.seed, r)
		shard := make([]uint64, perPE)
		for i := range shard {
			if sh.mixed {
				shard[i] = bpq.MakeUnique(uint32(rng.Uint64()>>32), uint32(i), r, sh.p)
			} else {
				shard[i] = rng.Uint64()
			}
		}
		in.shards[r] = shard
		in.sorted = append(in.sorted, shard...)
	}
	slices.Sort(in.sorted)
	return in
}

// query is one op of the stream.
type query struct {
	deleteMin bool
	k         int64 // rank (Kth) or batch size (DeleteMin)
}

// queryStream is a seeded, fixed-order stream of queries: Kth at
// uniformly random ranks, and on the mixed shape a DeleteMin at one seeded
// position in every four ops, so any prefix holds its quarter of them.
type queryStream struct {
	rng   *xrand.RNG
	n     int64
	mixed bool
	i     int // ops issued
	dmAt  int // position of the DeleteMin in the current block of four
}

func newQueryStream(opts options, sh servingShape, n int64, stream int64) *queryStream {
	return &queryStream{rng: xrand.New(opts.seed*1_000_003 + stream), n: n, mixed: sh.mixed}
}

func (qs *queryStream) next() query {
	pos := qs.i % 4
	qs.i++
	if qs.mixed {
		if pos == 0 {
			qs.dmAt = qs.rng.Intn(4)
		}
		if pos == qs.dmAt {
			return query{deleteMin: true, k: deleteMinBatch}
		}
	}
	return query{k: 1 + qs.rng.Int63n(qs.n)}
}

// servingInst is one built server with the state its oracle needs.
type servingInst struct {
	c  *runCtx
	sh servingShape
	in *servingInput
	m  *comm.Machine
	s  *serve.Server[uint64]

	ops atomic.Int64 // op ids for the spans
	// dmLeft is how many more DeleteMins the resident queue can serve in
	// full; once it is used up the stream's DeleteMins are sent as Kth, so
	// a long run never sees a short batch.
	dmLeft atomic.Int64

	mu         sync.Mutex
	thresholds []uint64 // of every successful DeleteMin since NewServer
}

func newServingInst(c *runCtx, sh servingShape, in *servingInput) (*servingInst, float64, error) {
	si := &servingInst{c: c, sh: sh, in: in}
	si.dmLeft.Store(int64(len(in.sorted))/deleteMinBatch - 1)
	var err error
	newMs := c.timed(0, 0, "setup", "serve", "newserver", func() {
		si.m = comm.NewMachine(comm.DefaultConfig(sh.p))
		si.s, err = serve.NewServer(si.m, in.shards, serveConfig)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("bench: %s: %w", sh.name, err)
	}
	return si, newMs, nil
}

// close shuts the server down and returns the time its Close took. The
// machine is left to its finalizer: Machine.Close right after a run can
// race the scheduler's trailing hand-off (ROADMAP item 1b, worst case a
// send on a closed channel), and the benchmark must not die of it.
func (si *servingInst) close(ph *phaseCount) float64 {
	var err error
	closeMs := si.c.timed(0, 0, "teardown", "serve", "close", func() { err = si.s.Close() })
	if err != nil {
		ph.attempt()
		si.c.fail(ph, "serve.Close: %v", err)
	}
	return closeMs
}

// opSample is the outcome of one served query.
type opSample struct {
	ok        bool
	deleteMin bool
	traced    bool
	submitMs  float64
	totalMs   float64 // submit → Wait returned
	words     int64
	sends     int64
}

// submit admits q. A refused or failed admission is a failed op and
// returns a nil ticket.
func (si *servingInst) submit(q *query, ph *phaseCount, phase string, op, parent int64) (*serve.Ticket[uint64], float64) {
	if q.deleteMin && si.dmLeft.Add(-1) < 0 {
		*q = query{k: 1 + (op*7919)%int64(len(si.in.sorted))}
	}
	ph.attempt()
	var tk *serve.Ticket[uint64]
	var err error
	submitMs := si.c.timed(op, parent, phase, "serve", "submit", func() {
		if q.deleteMin {
			tk, err = si.s.DeleteMin(q.k)
		} else {
			tk, err = si.s.Kth(q.k)
		}
	})
	if err != nil {
		si.c.fail(ph, "%s: submit: %v", phase, err)
		return nil, submitMs
	}
	return tk, submitMs
}

// await waits for the ticket and checks the answer. A wrong answer is a
// failed op.
func (si *servingInst) await(tk *serve.Ticket[uint64], q query, ph *phaseCount, phase string, op, parent int64) bool {
	var got uint64
	var err error
	si.c.timed(op, parent, phase, "serve", "wait", func() { got, err = tk.Wait() })
	switch {
	case err != nil:
		si.c.fail(ph, "%s: wait: %v", phase, err)
	case !q.deleteMin:
		if want := si.in.sorted[q.k-1]; got != want {
			si.c.fail(ph, "%s: Kth(%d) = %d, want %d", phase, q.k, got, want)
			return false
		}
		ph.success()
		return true
	case tk.BatchLen() != q.k:
		si.c.fail(ph, "%s: DeleteMin(%d) removed %d", phase, q.k, tk.BatchLen())
	default:
		// The threshold of the j-th DeleteMin is sorted[32j-1]; which j
		// this one was is only known for the phase as a whole
		// (checkThresholds), but it must be one of them.
		i, found := slices.BinarySearch(si.in.sorted, got)
		if !found || (i+1)%deleteMinBatch != 0 {
			si.c.fail(ph, "%s: DeleteMin threshold %d is no batch boundary", phase, got)
			return false
		}
		si.mu.Lock()
		si.thresholds = append(si.thresholds, got)
		si.mu.Unlock()
		ph.success()
		return true
	}
	return false
}

// checkThresholds verifies, once a phase's ops have all returned, that the
// multiset of DeleteMin thresholds so far is exactly sorted[32j-1] for
// j = 1..J. It reports false (and counts the failures) otherwise; the
// caller then discards the phase's DeleteMin samples.
func (si *servingInst) checkThresholds(ph *phaseCount, phase string) bool {
	si.mu.Lock()
	defer si.mu.Unlock()
	slices.Sort(si.thresholds)
	bad := 0
	for j, t := range si.thresholds {
		if t != si.in.sorted[deleteMinBatch*(j+1)-1] {
			bad++
		}
	}
	if bad == 0 {
		return true
	}
	ph.ok.Add(int64(-bad))
	ph.failed.Add(int64(bad - 1))
	si.c.fail(ph, "%s: %d of %d DeleteMin thresholds are not the batch boundaries in order", phase, bad, len(si.thresholds))
	return false
}

// one runs a query start to finish on the calling goroutine.
func (si *servingInst) one(q query, ph *phaseCount, phase string) opSample {
	si.c.wd.begin()
	defer si.c.wd.end()
	op := si.ops.Add(1)
	root := si.c.tr.begin(op, 0, phase, "bench", "op")
	s := opSample{traced: root.ID != 0}
	t0 := time.Now()
	tk, submitMs := si.submit(&q, ph, phase, op, root.ID)
	s.deleteMin, s.submitMs = q.deleteMin, submitMs
	if tk == nil {
		si.c.tr.end(root)
		return s
	}
	s.ok = si.await(tk, q, ph, phase, op, root.ID)
	s.totalMs = ms(time.Since(t0))
	s.words, s.sends = tk.Meters()
	si.c.tr.endCounted(root, s.words, s.sends)
	return s
}

// solo is the closed loop with one caller: at least minOps ops, then on
// until dur has passed. When the run is traced, tracing is switched on and
// off every traceBlock ops so that one process yields both the traced and
// the untraced op time.
func (si *servingInst) solo(phase string, gated bool, dur time.Duration, minOps int, stream int64) []opSample {
	ph := si.c.phase(phase, gated)
	qs := newQueryStream(si.c.opts, si.sh, int64(len(si.in.sorted)), stream)
	var samples []opSample
	deadline := time.Now().Add(dur)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if si.c.tr != nil {
			si.c.tr.on.Store(i/traceBlock%2 == 1)
		}
		samples = append(samples, si.one(qs.next(), ph, phase))
	}
	if si.c.tr != nil {
		si.c.tr.on.Store(true)
	}
	if !si.checkThresholds(ph, phase) {
		// A wrong answer never yields a time sample.
		samples = slices.DeleteFunc(samples, func(s opSample) bool { return s.deleteMin })
	}
	return samples
}

// satResult is what the saturation phase measured.
type satResult struct {
	opsPerS        float64 // median over the windows
	windows        int
	completed      int64
	cpuS           float64
	goroutinesPeak int
}

// saturate is the closed loop with satCallers callers for dur. Throughput
// is counted per window and reported as the median, so one stall does not
// set it.
func (si *servingInst) saturate(phase string, dur time.Duration, stream int64) satResult {
	ph := si.c.phase(phase, true)
	window := dur / satWindows
	counts := make([]atomic.Int64, satWindows)
	cpu0 := cpuSeconds(syscall.RUSAGE_SELF)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for caller := 0; caller < satCallers; caller++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			qs := newQueryStream(si.c.opts, si.sh, int64(len(si.in.sorted)), stream+int64(caller))
			for time.Now().Before(deadline) {
				if s := si.one(qs.next(), ph, phase); s.ok {
					if w := int(time.Since(start) / window); w < satWindows {
						counts[w].Add(1)
					}
				}
			}
		}(caller)
	}
	// Sample the goroutine count while the callers run: the machine is
	// meant to hold w + O(1) however many queries are in flight.
	peak := 0
	sampler := time.NewTicker(20 * time.Millisecond)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
sampling:
	for {
		select {
		case <-done:
			break sampling
		case <-sampler.C:
			peak = max(peak, runtime.NumGoroutine())
		}
	}
	sampler.Stop()
	res := satResult{windows: satWindows, cpuS: cpuSeconds(syscall.RUSAGE_SELF) - cpu0, goroutinesPeak: peak}
	si.checkThresholds(ph, phase)
	rates := make([]float64, satWindows)
	for w := range counts {
		res.completed += counts[w].Load()
		rates[w] = float64(counts[w].Load()) / window.Seconds()
	}
	res.opsPerS = median(rates)
	return res
}

// openResult is what an open-loop phase measured.
type openResult struct {
	lat        []float64 // due → result, ms, successful ops in arrival order
	lateMs     []float64 // how late after its due time each op was submitted
	sent       int
	failed     int
	backlogMid int64 // tickets outstanding at the middle arrival
	backlogEnd int64 // and at the last one
}

// openLoop offers queries on a fixed schedule, the i-th due at i/rate,
// whether or not earlier ones have finished. Latency is timed from the due
// time, so a stall is charged to every op it delays.
func (si *servingInst) openLoop(phase string, gated bool, rate float64, dur time.Duration, stream int64) openResult {
	ph := si.c.phase(phase, gated)
	qs := newQueryStream(si.c.opts, si.sh, int64(len(si.in.sorted)), stream)
	total := max(int(rate*dur.Seconds()), latSegments)
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]float64, total)
	dm := make([]bool, total)
	res := openResult{sent: total, lateMs: make([]float64, 0, total)}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		res.lateMs = append(res.lateMs, ms(time.Since(due)))
		q := qs.next()
		si.c.wd.begin()
		op := si.ops.Add(1)
		root := si.c.tr.begin(op, 0, phase, "bench", "op")
		tk, _ := si.submit(&q, ph, phase, op, root.ID)
		dm[i] = q.deleteMin
		lat[i] = -1
		if tk == nil {
			si.c.tr.end(root)
			si.c.wd.end()
		} else {
			outstanding.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if si.await(tk, q, ph, phase, op, root.ID) {
					lat[i] = ms(time.Since(due))
				}
				outstanding.Add(-1)
				words, sends := tk.Meters()
				si.c.tr.endCounted(root, words, sends)
				si.c.wd.end()
			}(i)
		}
		switch i {
		case total / 2:
			res.backlogMid = outstanding.Load()
		case total - 1:
			res.backlogEnd = outstanding.Load()
		}
	}
	wg.Wait()
	thresholdsOK := si.checkThresholds(ph, phase)
	for i, l := range lat {
		if l < 0 || dm[i] && !thresholdsOK {
			res.failed++ // a wrong answer never yields a time sample
		} else {
			res.lat = append(res.lat, l)
		}
	}
	return res
}

// sleepUntil sleeps to within 100 µs of t and yields for the rest, which
// keeps the generator's lateness at the scheduler's floor instead of the
// timer's.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 200*time.Microsecond {
		time.Sleep(d - 100*time.Microsecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// okTimes returns the op times of the successful samples that pass keep.
func okTimes(samples []opSample, keep func(opSample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && (keep == nil || keep(s)) {
			out = append(out, s.totalMs)
		}
	}
	return out
}

// runServing is the body of the three serving workloads.
func runServing(c *runCtx, sh servingShape) error {
	opts := c.opts
	t0 := time.Now()
	in := genServingInput(opts, sh)
	c.rep.InputGenS = time.Since(t0).Seconds()
	c.rep.R50PerS, c.rep.R80PerS = sh.r50, sh.r80
	exactOps := opts.div(sh.exactOps, 20)

	// Set-up, setupReps times over: build the machine and the server and
	// warm them. The last instance is the one measured.
	warm := c.phase("warmup", true)
	teardown := c.phase("teardown", true)
	var inst *servingInst
	var setupS, newMs, closeMs []float64
	// idleGoroutines is the count before the measured instance is built:
	// the harness's own plus the retired machines' idle workers.
	var idleGoroutines int
	for rep := 0; rep < opts.reps(setupReps, 2); rep++ {
		if inst != nil {
			closeMs = append(closeMs, inst.close(teardown))
		}
		idleGoroutines = runtime.NumGoroutine()
		t := time.Now()
		var nm float64
		var err error
		if inst, nm, err = newServingInst(c, sh, in); err != nil {
			return err
		}
		qs := newQueryStream(opts, sh, int64(len(in.sorted)), 1)
		for i := 0; i < opts.reps(warmupOps, 5); i++ {
			inst.one(qs.next(), warm, "warmup")
		}
		inst.checkThresholds(warm, "warmup")
		setupS = append(setupS, time.Since(t).Seconds())
		newMs = append(newMs, nm)
	}
	c.machine("serve", sh.p, inst.m.Workers())
	c.set("setup_s", median(setupS), len(setupS))

	if !opts.trace {
		solo := inst.solo("solo", true, c.share(0.30), exactOps, 100)
		sat := inst.saturate("sat", c.share(0.30), 200)
		r50 := inst.openLoop("r50", true, sh.r50, c.share(0.40), 300)
		inst.close(teardown)

		times := okTimes(solo, nil)
		c.set("op_ms_p50", median(times), len(times))
		c.set("ops_per_s", sat.opsPerS, sat.windows)
		c.set("lat_ms_p50", segmentedPercentile(r50.lat, latSegments, 0.50), len(r50.lat))
		c.set("lat_ms_p90", segmentedPercentile(r50.lat, latSegments, 0.90), len(r50.lat))
		setExactServing(c, sh, solo, exactOps)
		setOKFrac(c)
		c.set("peak_rss_mb", peakRSSMB(), 0)
		return nil
	}

	proc0 := snapProc()
	solo := inst.solo("solo", true, c.share(0.25), exactOps, 100)
	proc1 := snapProc()
	sat := inst.saturate("sat", c.share(0.15), 200)
	r50 := inst.openLoop("r50", true, sh.r50, c.share(0.25), 300)
	r80 := inst.openLoop("r80", false, sh.r80, c.share(0.20), 400)
	proc2 := snapProc()
	closeMs = append(closeMs, inst.close(teardown))
	direct, clock, err := directKth(c, sh, in, c.share(0.15), exactOps)
	if err != nil {
		return err
	}

	untraced := okTimes(solo, func(s opSample) bool { return !s.traced })
	traced := okTimes(solo, func(s opSample) bool { return s.traced })
	opP50 := median(untraced)
	var submitUs []float64
	for _, s := range solo {
		if s.ok {
			submitUs = append(submitUs, s.submitMs*1e3)
		}
	}
	latP50 := segmentedPercentile(r50.lat, latSegments, 0.50)
	c.set("serve.submit_us_p50", median(submitUs), len(submitUs))
	c.set("serve.overhead_ms", opP50-median(direct), len(untraced))
	c.set("serve.queue_ms_p50", latP50-opP50, len(r50.lat))
	c.set("serve.lat_ms_p99", percentile(r50.lat, 0.99), len(r50.lat))
	c.set("serve.r80_lat_ms_p50", segmentedPercentile(r80.lat, latSegments, 0.50), len(r80.lat))
	c.set("serve.r80_lat_ms_p90", segmentedPercentile(r80.lat, latSegments, 0.90), len(r80.lat))
	c.set("serve.r80_fail_frac", float64(r80.failed)/float64(r80.sent), r80.sent)
	c.set("serve.r80_backlog", float64(r80.backlogEnd-r80.backlogMid), 0)
	c.set("serve.gen_late_ms_p99", percentile(r50.lateMs, 0.99), len(r50.lateMs))
	kth := okTimes(solo, func(s opSample) bool { return !s.deleteMin })
	c.set("serve.kth_ms_p50", median(kth), len(kth))
	if sh.mixed {
		dm := okTimes(solo, func(s opSample) bool { return s.deleteMin })
		c.set("serve.deletemin_ms_p50", median(dm), len(dm))
	}
	c.set("serve.newserver_ms", median(newMs), len(newMs))
	c.set("serve.close_ms", median(closeMs), len(closeMs))
	c.set("sel.kth_direct_ms_p50", median(direct), len(direct))
	c.set("sel.kth_model_clock", clock, exactOps)
	c.set("proc.cpu_s_per_op", sat.cpuS/float64(max(sat.completed, 1)), int(sat.completed))
	c.set("proc.allocs_per_op", float64(proc1.mallocs-proc0.mallocs)/float64(len(solo)), len(solo))
	c.set("proc.gc_pause_ms", float64(proc2.pauseNs-proc0.pauseNs)/1e6, 0)
	c.set("proc.goroutines_peak", float64(sat.goroutinesPeak-idleGoroutines), 0)
	c.set("bench.trace_overhead_frac", median(traced)/opP50-1, len(traced))
	return runProbes(c)
}

// setExactServing sets the paper's y and z per query: words and messages
// sent, summed over PEs by Ticket.Meters, over the first exactOps solo
// ops, per op and PE.
func setExactServing(c *runCtx, sh servingShape, solo []opSample, exactOps int) {
	var words, sends int64
	for _, s := range solo[:min(exactOps, len(solo))] {
		words += s.words
		sends += s.sends
	}
	per := float64(exactOps * sh.p)
	c.set("words_per_op", float64(words)/per, exactOps)
	c.set("startups_per_op", float64(sends)/per, exactOps)
}

// setOKFrac sets ok_frac over the gated phases counted so far.
func setOKFrac(c *runCtx) {
	var sent, failed int64
	for _, p := range c.rep.Phases {
		if p.Gated {
			sent += p.sent.Load()
			failed += p.failed.Load()
		}
	}
	c.set("ok_frac", 1-float64(failed)/float64(max(sent, 1)), int(sent))
}

// directKth is the sel probe of a serving workload: the same shards and
// the same stream of ranks through sel.KthStep under Machine.RunAsync,
// the execution mode serve uses, with no front end. It returns the op
// times and the modeled clock per query over the first exactOps queries.
func directKth(c *runCtx, sh servingShape, in *servingInput, dur time.Duration, exactOps int) ([]float64, float64, error) {
	ph := c.phase("sel-direct", false)
	m := comm.NewMachine(comm.DefaultConfig(sh.p)) // left to its finalizer, see servingInst.close
	c.machine("sel-direct", sh.p, m.Workers())
	qs := newQueryStream(c.opts, sh, int64(len(in.sorted)), 100)
	var times []float64
	var clock float64
	clocked := 0
	deadline := time.Now().Add(dur)
	for i := 0; i < exactOps || time.Now().Before(deadline); i++ {
		q := qs.next()
		if q.deleteMin {
			continue
		}
		var got uint64
		var err error
		seed := serveConfig.Seed + int64(i)
		c.wd.begin()
		ph.attempt()
		m.ResetStats()
		d := c.timed(int64(i+1), 0, "sel-direct", "sel", "kthstep", func() {
			err = m.RunAsync(func(pe *comm.PE) comm.Stepper {
				var out func(uint64)
				if pe.Rank() == 0 {
					out = func(v uint64) { got = v }
				}
				return sel.KthStep(pe, in.shards[pe.Rank()], q.k, xrand.NewPE(seed, pe.Rank()), out)
			})
		})
		c.wd.end()
		if err != nil {
			return nil, 0, fmt.Errorf("bench: sel-direct: %w", err)
		}
		if got != in.sorted[q.k-1] {
			c.fail(ph, "sel-direct: Kth(%d) = %d, want %d", q.k, got, in.sorted[q.k-1])
			continue
		}
		ph.success()
		times = append(times, d)
		if i < exactOps {
			clock += m.Stats().MaxClock
			clocked++
		}
	}
	if clocked == 0 {
		return nil, 0, errors.New("bench: sel-direct measured nothing")
	}
	return times, clock / float64(clocked), nil
}
