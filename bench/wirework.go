package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/wire"
)

const (
	wireP     = 16
	wireProcs = 2
	wireSeed  = 5 // the cluster's shared RNG seed, as in the repository's wire family
)

// wireProg is one registered program of the wire round and the argument
// vector it runs with.
type wireProg struct {
	name string
	args []uint64
}

// wirePrograms are the five registered programs with the argument vectors
// of the repository's wire family. The first argument of each is the
// program's input seed: variant v of run seed s adds 16(s−1) + v to it, so
// seed 1, variant 0 is the family as committed and no two seeds share an
// input.
func wirePrograms(opts options, variant int) []wireProg {
	p := uint64(wireP)
	s := uint64(opts.seed-1)*roundVariants + uint64(variant)
	d := func(n int) uint64 { return uint64(opts.div(n, 16)) }
	return []wireProg{
		{"collectives", []uint64{42 + s, 16}},
		{"kth", []uint64{7 + s, d(1 << 12), p * d(1<<12) / 2}},
		{"deletemin", []uint64{11 + s, d(1 << 10), 64 * p, 4}},
		{"mtopk", []uint64{13 + s, d(256), 4, 16}},
		{"freq", []uint64{17 + s, d(1 << 12), 256, 16}},
	}
}

// twinResult is what the in-process twin of one program returned.
type twinResult struct {
	results []uint64
	stats   comm.Stats
}

func runWire(c *runCtx) error {
	cfg := wire.Config{P: wireP, Procs: wireProcs, Seed: wireSeed}

	// The oracle: every variant of every program once on the
	// single-process twin. A wire run must return the same result words
	// and the same six statistics.
	t0 := time.Now()
	variants := c.opts.reps(roundVariants, 4)
	progs := make([][]wireProg, variants)
	twins := make([][]twinResult, variants)
	for v := range progs {
		progs[v] = wirePrograms(c.opts, v)
		for _, pr := range progs[v] {
			res, st, err := wire.RunLocal(cfg, pr.name, pr.args)
			if err != nil {
				return fmt.Errorf("bench: wire twin %s: %w", pr.name, err)
			}
			twins[v] = append(twins[v], twinResult{res, st})
		}
	}
	c.rep.InputGenS = time.Since(t0).Seconds()

	// The rendezvous socket lives in the checkout, under a relative path:
	// short enough for sun_path wherever the checkout is, and the workers
	// inherit the working directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	cfg.Addr = filepath.Join(".bench_build", fmt.Sprintf("wire-%d.sock", os.Getpid()))
	os.Remove(cfg.Addr) // a socket left by a killed run with this pid would block the listener

	var cl *wire.Cluster
	var rr *roundRunner
	var setupS, spawnMs []float64
	var last comm.Stats
	var idleGoroutines int // before the measured cluster is spawned
	warm := c.phase("warmup", true)
	teardown := c.phase("teardown", true)
	closeCluster := func() {
		if err := cl.Close(); err != nil {
			teardown.attempt()
			c.fail(teardown, "wire.Cluster.Close: %v", err)
		}
	}
	for rep := 0; rep < c.opts.reps(setupReps, 2); rep++ {
		if cl != nil {
			closeCluster()
		}
		idleGoroutines = runtime.NumGoroutine()
		t := time.Now()
		var err error
		spawnMs = append(spawnMs, c.timed(0, 0, "setup", "wire", "spawn", func() { cl, err = wire.Spawn(cfg) }))
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		cluster := cl
		rr = &roundRunner{c: c, stats: func() comm.Stats { return last }, reset: func() {}, variants: variants}
		for i, pr := range progs[0] {
			var got []uint64
			rr.calls = append(rr.calls, call{"wire", pr.name,
				func(v int) (err error) { got, last, err = cluster.Run(pr.name, progs[v][i].args); return },
				func(v int) string {
					if !slices.Equal(got, twins[v][i].results) {
						return "result words differ from the in-process twin"
					}
					if last != twins[v][i].stats {
						return fmt.Sprintf("statistics %+v differ from the twin's %+v", last, twins[v][i].stats)
					}
					return ""
				}})
		}
		for i := 0; i < c.opts.reps(warmupRounds, 1); i++ {
			if _, _, err := rr.round(warm, "warmup"); err != nil {
				closeCluster()
				return err
			}
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	// Each process hosts p/procs PEs on its own scheduler.
	c.machine("wire (per process)", wireP, min(8*runtime.GOMAXPROCS(0), wireP/wireProcs))
	c.set("setup_s", median(setupS), len(setupS))

	// Children are accounted when reaped: the earlier clusters' workers are
	// in childCPU0, the measured cluster's are added by its Close.
	childCPU0 := cpuSeconds(syscall.RUSAGE_CHILDREN)
	before := snapProc()
	err := rr.timedRounds(c.share(1))
	after := snapProc()
	goroutines := runtime.NumGoroutine() - idleGoroutines
	closeCluster()
	if err != nil {
		return err
	}
	workerCPU := cpuSeconds(syscall.RUSAGE_CHILDREN) - childCPU0
	if !c.opts.trace {
		rr.setEndToEnd()
		c.set("peak_rss_mb", peakRSSMB(), 0)
		return nil
	}

	// The twin's round, timed: what the same programs cost with no
	// transport under them.
	twinPh := c.phase("twin", false)
	var twinMs []float64
	for r := 0; r < max(len(rr.samples)/4, variants); r++ {
		c.wd.begin()
		twinPh.attempt()
		v := r % variants
		var t float64
		for i, pr := range progs[v] {
			var res []uint64
			var rerr error
			t += c.timed(int64(r+1), 0, "twin", "wire", "twin."+pr.name, func() { res, _, rerr = wire.RunLocal(cfg, pr.name, pr.args) })
			if rerr == nil && !slices.Equal(res, twins[v][i].results) {
				rerr = fmt.Errorf("twin %s does not repeat its own result", pr.name)
			}
			if rerr != nil {
				c.wd.end()
				return fmt.Errorf("bench: wire twin: %w", rerr)
			}
		}
		c.wd.end()
		twinPh.success()
		twinMs = append(twinMs, t)
	}

	rr.setProc(before, after, workerCPU, goroutines)
	for i, pr := range progs[0] {
		c.set("wire."+pr.name+"_ms_p50", median(rr.callTimes(i)), len(rr.samples))
	}
	opP50 := median(rr.roundTimes(func(tr bool) bool { return !tr }))
	twinP50 := median(twinMs)
	c.set("wire.twin_round_ms_p50", twinP50, len(twinMs))
	c.set("wire.overhead_x", opP50/twinP50, len(twinMs))
	c.set("wire.us_per_startup", (opP50-twinP50)*1e3/rr.exact(maxSends), len(twinMs))
	c.set("wire.spawn_ms", median(spawnMs), len(spawnMs))
	c.set("wire.worker_cpu_s", workerCPU, 0)
	return runProbes(c)
}
