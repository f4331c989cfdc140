package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"
)

// metricDef names one metric of BENCHMARK.json. Exact metrics are
// deterministic counters: two runs with the same seed must agree on them
// to the last digit, and -compare holds them to equality.
type metricDef struct {
	name  string
	unit  string
	exact bool
	// on lists the workloads that measure the metric; empty means all.
	on []string
}

func (d metricDef) appliesTo(workload string) bool {
	return len(d.on) == 0 || slices.Contains(d.on, workload)
}

var (
	onServing   = []string{"serve-kth-fat", "serve-kth-thin", "serve-mixed"}
	onMixed     = []string{"serve-mixed"}
	onSelect    = []string{"batch-select"}
	onAggregate = []string{"batch-aggregate"}
	onWire      = []string{"wire-procs2"}
	onPrograms  = []string{"batch-select", "batch-aggregate", "wire-procs2"}
)

// endToEndDefs are printed by every gated run (-trace 0).
var endToEndDefs = []metricDef{
	{"setup_s", "s", false, nil},
	{"op_ms_p50", "ms", false, nil},
	{"ops_per_s", "1/s", false, nil},
	{"lat_ms_p50", "ms", false, nil},
	{"lat_ms_p90", "ms", false, nil},
	{"ok_frac", "ratio", false, nil},
	{"words_per_op", "words", true, nil},
	{"startups_per_op", "msgs", true, nil},
	{"peak_rss_mb", "MB", false, nil},
}

// perLayerDefs are printed by every traced run (-trace 1). A metric whose
// layer the run's workload does not reach reads 0.
var perLayerDefs = []metricDef{
	{"serve.submit_us_p50", "us", false, onServing},
	{"serve.overhead_ms", "ms", false, onServing},
	{"serve.queue_ms_p50", "ms", false, onServing},
	{"serve.lat_ms_p99", "ms", false, onServing},
	{"serve.r80_lat_ms_p50", "ms", false, onServing},
	{"serve.r80_lat_ms_p90", "ms", false, onServing},
	{"serve.r80_fail_frac", "ratio", false, onServing},
	{"serve.r80_backlog", "count", false, onServing},
	{"serve.gen_late_ms_p99", "ms", false, onServing},
	{"serve.kth_ms_p50", "ms", false, onServing},
	{"serve.deletemin_ms_p50", "ms", false, onMixed},
	{"serve.newserver_ms", "ms", false, onServing},
	{"serve.close_ms", "ms", false, onServing},

	{"sel.kth_direct_ms_p50", "ms", false, onServing},
	{"sel.kth_model_clock", "clock", true, onServing},
	{"sel.smallestk_ms_p50", "ms", false, onSelect},
	{"sel.kth_ms_p50", "ms", false, onSelect},
	{"sel.msselect_ms_p50", "ms", false, onSelect},

	{"qsel.selectinto_ns_per_elem", "ns", false, nil},
	{"qsel.partition_ns_per_elem", "ns", false, nil},
	{"qsel.copy_ns_per_elem", "ns", false, nil},
	{"qsel.rank_ns_per_elem", "ns", false, nil},
	{"qsel.select_ns_per_elem", "ns", false, nil},

	{"coll.barrier_us", "us", false, nil},
	{"coll.allreduce_scalar_us", "us", false, nil},
	{"coll.broadcast_scalar_us", "us", false, nil},
	{"coll.exscan_sum_us", "us", false, nil},
	{"coll.allgatherv_us", "us", false, nil},
	{"coll.alltoall_us", "us", false, nil},

	{"comm.run_empty_us", "us", false, nil},
	{"comm.runasync_empty_us", "us", false, nil},
	{"comm.pingpong_us", "us", false, nil},
	{"comm.ring_msgs_per_s", "1/s", false, nil},
	{"comm.newmachine_ms", "ms", false, nil},
	{"comm.model_clock_per_op", "clock", true, onPrograms},

	{"mailbox.put_take_ns", "ns", false, nil},
	{"mailbox.sched_run_us", "us", false, nil},

	{"bpq.churn_ms_p50", "ms", false, onSelect},
	{"treap.insert_ns", "ns", false, nil},
	{"treap.delete_ns", "ns", false, nil},
	{"treap.insertbulk_ns_per_elem", "ns", false, nil},

	{"freq.pac_ms_p50", "ms", false, onAggregate},
	{"freq.ec_ms_p50", "ms", false, onAggregate},
	{"agg.pac_ms_p50", "ms", false, onAggregate},
	{"agg.ecsum_ms_p50", "ms", false, onAggregate},
	{"mtopk.topk_ms_p50", "ms", false, onAggregate},
	{"redist.balance_ms_p50", "ms", false, onAggregate},
	{"freq.pac_words", "words", true, onAggregate},
	{"freq.ec_words", "words", true, onAggregate},
	{"agg.pac_words", "words", true, onAggregate},
	{"agg.ecsum_words", "words", true, onAggregate},
	{"mtopk.topk_startups", "msgs", true, onAggregate},
	{"redist.balance_words", "words", true, onAggregate},
	{"dht.table_add_ns", "ns", false, nil},
	{"dht.table_get_ns", "ns", false, nil},

	{"wire.collectives_ms_p50", "ms", false, onWire},
	{"wire.kth_ms_p50", "ms", false, onWire},
	{"wire.deletemin_ms_p50", "ms", false, onWire},
	{"wire.freq_ms_p50", "ms", false, onWire},
	{"wire.mtopk_ms_p50", "ms", false, onWire},
	{"wire.twin_round_ms_p50", "ms", false, onWire},
	{"wire.overhead_x", "ratio", false, onWire},
	{"wire.us_per_startup", "us", false, onWire},
	{"wire.spawn_ms", "ms", false, onWire},
	{"wire.worker_cpu_s", "s", false, onWire},

	{"proc.cpu_s_per_op", "s", false, nil},
	{"proc.allocs_per_op", "count", false, nil},
	{"proc.gc_pause_ms", "ms", false, nil},
	{"proc.goroutines_peak", "count", false, nil},
	{"bench.trace_overhead_frac", "ratio", false, nil},
}

// metricValue is one reported number with the sample count behind it
// (0 where the value is not a statistic over samples).
type metricValue struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Exact   bool    `json:"exact,omitempty"`
	// Applies is false for a per-layer metric of a layer the workload does
	// not reach; its value is then a placeholder 0.
	Applies bool `json:"applies"`
}

// phaseCount is the failure accounting of one timed phase. A failed op
// (error, ErrOverloaded, wrong answer) never contributes a time sample.
type phaseCount struct {
	Phase     string `json:"phase"`
	Sent      int64  `json:"sent"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
	// Gated phases count towards ok_frac and the result line's attempted
	// and failed; r80 and the probes are reported but not gated.
	Gated bool `json:"gated"`

	sent, ok, failed atomic.Int64
}

func (p *phaseCount) attempt() { p.sent.Add(1) }
func (p *phaseCount) success() { p.ok.Add(1) }
func (p *phaseCount) fail()    { p.failed.Add(1) }

// machineInfo records the scheduler width of one machine the run built.
type machineInfo struct {
	Name string `json:"name"`
	P    int    `json:"p"`
	W    int    `json:"w"`
}

// runReport is everything one run of one workload measured; -out appends
// it to a report file for -compare. Typed fields only.
type runReport struct {
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Trace      bool          `json:"trace"`
	Shrink     int           `json:"shrink"`
	Host       hostInfo      `json:"host"`
	Machines   []machineInfo `json:"machines"`
	R50PerS    float64       `json:"r50_per_s,omitempty"`
	R80PerS    float64       `json:"r80_per_s,omitempty"`
	InputGenS  float64       `json:"input_gen_s"`
	Phases     []*phaseCount `json:"phases"`
	Attempted  int64         `json:"attempted"`
	Failed     int64         `json:"failed"`
	Hung       bool          `json:"hung"`
	Invalid    bool          `json:"invalid"`
	Correct    bool          `json:"correct"`
	Metrics    []metricValue `json:"metrics"`
	SelfTimes  []selfTime    `json:"self_times,omitempty"`
	TraceFile  string        `json:"trace_file,omitempty"`
	FirstError string        `json:"first_error,omitempty"`
}

// reportFile is what -out writes and -compare reads: every run of a set,
// several per workload when -runs asks for them.
type reportFile struct {
	Runs []runReport `json:"runs"`
}

// finish folds the phase counters and fills in every metric the mode must
// print; a per-layer metric that does not apply to the workload reads 0.
func (r *runReport) finish(values map[string]metricValue) error {
	r.Attempted, r.Failed = 0, 0
	for _, p := range r.Phases {
		p.Sent, p.Succeeded, p.Failed = p.sent.Load(), p.ok.Load(), p.failed.Load()
		if p.Gated {
			r.Attempted += p.Sent
			r.Failed += p.Failed
		}
	}
	// A hang or an unprintable measurement is one more failed attempt.
	for _, bad := range []bool{r.Hung, r.Invalid} {
		if bad {
			r.Attempted++
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	defs := endToEndDefs
	if r.Trace {
		defs = perLayerDefs
	}
	r.Metrics = r.Metrics[:0]
	for _, d := range defs {
		v, ok := values[d.name]
		// A run that already failed may have nothing to measure from; a
		// clean run that left an applicable metric out is a bug here.
		if !ok && d.appliesTo(r.Workload) && r.Failed == 0 {
			return fmt.Errorf("bench: workload %s did not measure %s", r.Workload, d.name)
		}
		v.Name, v.Unit, v.Exact, v.Applies = d.name, d.unit, d.exact, d.appliesTo(r.Workload)
		r.Metrics = append(r.Metrics, v)
	}
	return nil
}

// printText writes the human-readable report.
func (r *runReport) printText(w io.Writer) {
	mode := "gated (tracing off): end-to-end metrics"
	if r.Trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	h := r.Host
	fmt.Fprintf(w, "host: GOMAXPROCS %d  NumCPU %d  %s  commit %s  cpu %q\n", h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.Commit, h.CPUModel)
	for _, m := range r.Machines {
		fmt.Fprintf(w, "machine %-14s p %3d  w %3d\n", m.Name, m.P, m.W)
	}
	if r.R50PerS > 0 {
		fmt.Fprintf(w, "open-loop rates: r50 %g/s  r80 %g/s (fixed, uniform spacing)\n", r.R50PerS, r.R80PerS)
	}
	fmt.Fprintf(w, "input generation and oracle: %.3f s (not part of setup_s)\n", r.InputGenS)
	for _, p := range r.Phases {
		gate := "gated"
		if !p.Gated {
			gate = "ungated"
		}
		fmt.Fprintf(w, "phase %-14s sent %7d  succeeded %7d  failed %4d  (%s)\n", p.Phase, p.Sent, p.Succeeded, p.Failed, gate)
	}
	for _, m := range r.Metrics {
		if !m.Applies {
			fmt.Fprintf(w, "  %-30s %16s %-6s  not measured by this workload\n", m.Name, "-", m.Unit)
			continue
		}
		note := ""
		if m.Samples > 0 {
			note = fmt.Sprintf("  (n = %d)", m.Samples)
		}
		if m.Exact {
			note += "  exact"
		}
		fmt.Fprintf(w, "  %-30s %16.6f %-6s%s\n", m.Name, m.Value, m.Unit, note)
	}
	if len(r.SelfTimes) > 0 {
		fmt.Fprintf(w, "span self time (span minus the interval its children cover):\n")
		for _, s := range r.SelfTimes {
			fmt.Fprintf(w, "  %-8s %-14s count %7d  total %11.3f ms  self %11.3f ms\n", s.Layer, s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
		fmt.Fprintf(w, "spans written to %s\n", r.TraceFile)
	}
	if r.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", r.FirstError)
	}
}

// resultLine is the contract's last line of standard output.
func (r *runReport) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]mv, len(r.Metrics))}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	// Every value is finite (runCtx.set) and every key a string, so the
	// encoder cannot fail.
	b, _ := json.Marshal(out)
	return string(b)
}

// appendReport adds run to the report file at path (created if absent).
func appendReport(path string, run runReport) error {
	var rf reportFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("bench: %s is not a report file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("bench: %w", err)
	}
	rf.Runs = append(rf.Runs, run)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
