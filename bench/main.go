// Command bench is the repository's one gated benchmark: six workloads
// driven only through the public functions of the layers, every answer
// checked against an oracle, nine end-to-end metrics from a gated run
// (tracing off) and seventy per-layer metrics from a traced run. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -workload serve-kth-fat -seed 1 -seconds 12 -trace 0
//	go run ./bench -workload serve-kth-fat -seed 1 -seconds 12 -trace 1
//	go run ./bench -out set.json            # all six workloads, gated
//	go run ./bench -compare a.json b.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"commtopk/internal/wire"
	_ "commtopk/internal/wire/wireprogs" // programs and codecs of the wire workload, in leader and workers alike
)

// options are the command line of one workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// shrink divides every input size and op-count floor: 1 from the
	// command line, 64 in the smoke test.
	shrink int
	// hangAfter is the watchdog's per-op limit.
	hangAfter time.Duration
}

// div scales a size down by the shrink factor, never below floor.
func (o options) div(n, floor int) int { return max(n/o.shrink, floor) }

// reps is a repetition count: n at full size, few in a shrunk (smoke) run.
func (o options) reps(n, few int) int {
	if o.shrink > 1 {
		return few
	}
	return n
}

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	name string
	run  func(c *runCtx) error
}

var workloadDefs = []workloadDef{
	{"serve-kth-fat", func(c *runCtx) error { return runServing(c, servingFat) }},
	{"serve-kth-thin", func(c *runCtx) error { return runServing(c, servingThin) }},
	{"serve-mixed", func(c *runCtx) error { return runServing(c, servingMixed) }},
	{"batch-select", runBatchSelect},
	{"batch-aggregate", runBatchAggregate},
	{"wire-procs2", runWire},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// runCtx is what a workload measures into.
type runCtx struct {
	opts options
	tr   *tracer
	wd   *watchdog
	rep  *runReport

	mu     sync.Mutex
	values map[string]metricValue
}

// set records a metric. A value that is not a finite number marks the
// run incorrect: it cannot be printed and must not pass for a measurement.
func (c *runCtx) set(name string, value float64, samples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if math.IsNaN(value) || math.IsInf(value, 0) {
		c.failf("metric %s is not a finite number", name)
		c.rep.Invalid = true
		value = 0
	}
	c.values[name] = metricValue{Value: value, Samples: samples}
}

// failf records the first error text of the run; counting the failure is
// the caller's job (phaseCount.fail).
func (c *runCtx) failf(format string, args ...any) {
	if c.rep.FirstError == "" {
		c.rep.FirstError = fmt.Sprintf(format, args...)
	}
}

// fail counts one failed op of phase p and keeps the first error text.
func (c *runCtx) fail(p *phaseCount, format string, args ...any) {
	p.fail()
	c.mu.Lock()
	c.failf(format, args...)
	c.mu.Unlock()
}

// phase opens the failure accounting of one timed phase.
func (c *runCtx) phase(name string, gated bool) *phaseCount {
	p := &phaseCount{Phase: name, Gated: gated}
	c.rep.Phases = append(c.rep.Phases, p)
	return p
}

func (c *runCtx) machine(name string, p, w int) {
	c.rep.Machines = append(c.rep.Machines, machineInfo{Name: name, P: p, W: w})
}

// timed runs f as one call into layer/name: a span when tracing, and the
// call's wall time in milliseconds either way.
func (c *runCtx) timed(op, parent int64, phase, layer, name string, f func()) float64 {
	sp := c.tr.begin(op, parent, phase, layer, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	c.tr.end(sp)
	return ms(d)
}

// share is the part of the run's measuring time given to one phase.
func (c *runCtx) share(frac float64) time.Duration {
	return time.Duration(frac * c.opts.seconds * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setupReps is how many times a workload builds and warms the system
// under test; setup_s is the median.
const setupReps = 5

// runWorkload executes one workload and returns its report. hung is
// called from the watchdog's goroutine if an op never returns.
func runWorkload(opts options, hung func(*runReport)) (*runReport, error) {
	def := findWorkload(opts.workload)
	if def == nil {
		return nil, fmt.Errorf("bench: unknown workload %q", opts.workload)
	}
	c := &runCtx{
		opts:   opts,
		values: make(map[string]metricValue),
		rep: &runReport{
			Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds,
			Trace: opts.trace, Shrink: opts.shrink, Host: fingerprint(),
		},
	}
	if opts.trace {
		c.tr = newTracer(opts.workload)
		c.tr.on.Store(true)
	}
	c.wd = startWatchdog(opts.hangAfter, func() {
		c.mu.Lock()
		c.rep.Hung = true
		c.failf("watchdog: no op started or finished for %v with ops in flight", opts.hangAfter)
		// The report is finished under the lock: the workload's own
		// goroutines may still be setting metrics.
		err := c.rep.finish(c.values)
		c.mu.Unlock()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		hung(c.rep)
	})
	defer c.wd.close()
	if err := def.run(c); err != nil {
		return nil, err
	}
	if c.tr != nil {
		c.rep.TraceFile = opts.traceOut
		c.rep.SelfTimes = c.tr.selfTimes()
		if err := c.tr.write(opts.traceOut); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.rep.finish(c.values); err != nil {
		return nil, err
	}
	return c.rep, nil
}

func main() {
	wire.MaybeWorker() // a wire worker never returns from here
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload name, or all: every workload in turn, each in its own process")
		seed     = fs.Int64("seed", 1, "seeds input generation and the query stream")
		seconds  = fs.Float64("seconds", 12, "measuring time of one run")
		trace    = fs.Int("trace", 0, "0: gated run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		traceOut = fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.jsonl)")
		out      = fs.String("out", "", "append the run's full report to this JSON file (input of -compare)")
		runs     = fs.Int("runs", 1, "with -workload all: runs per workload, seeds seed, seed+1, ...")
		compare  = fs.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -runs at least 1, -trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, *runs, *out, stdout, stderr)
	}
	pinProcs()
	opts := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceOut: *traceOut, shrink: 1, hangAfter: 30 * time.Second,
	}
	if opts.traceOut == "" {
		opts.traceOut = filepath.Join(".bench_build", "trace-"+opts.workload+".jsonl")
	}
	emit := func(rep *runReport) int {
		rep.printText(stdout)
		if *out != "" {
			if err := appendReport(*out, *rep); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		fmt.Fprintln(stdout, rep.resultLine())
		if !rep.Correct {
			return 1
		}
		return 0
	}
	rep, err := runWorkload(opts, func(rep *runReport) {
		// A hung op cannot be cancelled: dump what every goroutine is
		// doing, report the run as failed and leave. Wire workers exit
		// when the leader's socket closes.
		pprof.Lookup("goroutine").WriteTo(stderr, 2)
		emit(rep)
		os.Exit(3)
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return emit(rep)
}

// runAll runs every workload in turn, each in a process of its own so
// that set-up time and peak memory are the workload's and not the sum of
// its predecessors'. Output streams through; the exit code is non-zero if
// any run failed.
func runAll(seed int64, seconds float64, trace, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: resolve own executable: %v\n", err)
		return 1
	}
	code := 0
	for _, def := range workloadDefs {
		for r := 0; r < runs; r++ {
			args := []string{
				"-workload", def.name, "-seed", fmt.Sprint(seed + int64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					fmt.Fprintf(stderr, "bench: run %s: %v\n", def.name, err)
				}
				code = 1
			}
			fmt.Fprintln(stdout)
		}
	}
	return code
}
