package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"commtopk/internal/wire"
)

// specPath is BENCHMARK.json, resolved before TestMain leaves the package
// directory.
var specPath string

func TestMain(m *testing.M) {
	wire.MaybeWorker() // the wire workload re-executes this binary as its worker
	pinProcs()         // as main does: w = p for the blocking p = 16 machines, on any host
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	specPath = filepath.Join(wd, "..", "BENCHMARK.json")
	// The wire workload puts its socket under ./.bench_build: run in a
	// scratch directory so the package directory stays clean.
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.Chdir(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSpecMatchesCode pins BENCHMARK.json to the tables the program
// prints from, so a renamed metric or workload fails tier-1.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadDefs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
	if len(endToEndDefs) != 9 || len(perLayerDefs) != 70 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 9 and 70", len(endToEndDefs), len(perLayerDefs))
	}
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 3, seconds: 0.05, trace: trace,
		traceOut: filepath.Join(t.TempDir(), "trace.jsonl"),
		shrink:   64, hangAfter: 30 * time.Second,
	}
}

func runSmoke(t *testing.T, workload string, trace bool) *runReport {
	t.Helper()
	rep, err := runWorkload(smokeOptions(t, workload, trace), func(rep *runReport) {
		t.Errorf("%s: watchdog fired: %s", workload, rep.FirstError)
	})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s (trace %v): %d of %d ops failed: %s", workload, trace, rep.Failed, rep.Attempted, rep.FirstError)
	}
	return rep
}

// checkMetrics asserts that the report carries exactly the metrics of its
// mode, each once, each with its unit, the applicable ones measured; and
// that the result line parses into the contract's four keys.
func checkMetrics(t *testing.T, rep *runReport, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", rep.Workload, len(rep.Metrics), len(defs))
	}
	seen := make(map[string]bool)
	for i, m := range rep.Metrics {
		d := defs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Unit == "" {
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", rep.Workload, i, m.Name, m.Unit, d.name, d.unit)
		}
		if seen[m.Name] {
			t.Errorf("%s: %s emitted twice", rep.Workload, m.Name)
		}
		seen[m.Name] = true
		if m.Applies != d.appliesTo(rep.Workload) {
			t.Errorf("%s: %s applies = %v", rep.Workload, m.Name, m.Applies)
		}
		if !m.Applies && m.Value != 0 {
			t.Errorf("%s: %s does not apply but reads %v", rep.Workload, m.Name, m.Value)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", rep.Workload, m.Name, m.Value)
		}
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(rep.resultLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: result line: %v", rep.Workload, err)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || len(line.Metrics) != len(defs) {
		t.Errorf("%s: result line %s", rep.Workload, rep.resultLine())
	}
	for name, m := range line.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("%s: result line metric %s lacks a value or a unit", rep.Workload, name)
		}
	}
}

// exactOf returns the exact counters of a report.
func exactOf(rep *runReport) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range rep.Metrics {
		if m.Exact && m.Applies {
			out[m.Name] = m.Value
		}
	}
	return out
}

// TestSmoke runs every workload at 1/64 size, gated and traced, twice
// each with one seed: every metric of BENCHMARK.json must come out once
// with its unit, every answer must be right, and the exact counters must
// repeat to the digit.
func TestSmoke(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			if def.name == "wire-procs2" && testing.Short() {
				t.Skip("starts a worker process")
			}
			for _, trace := range []bool{false, true} {
				defs := endToEndDefs
				if trace {
					defs = perLayerDefs
				}
				a, b := runSmoke(t, def.name, trace), runSmoke(t, def.name, trace)
				checkMetrics(t, a, defs)
				ea, eb := exactOf(a), exactOf(b)
				if len(ea) == 0 {
					t.Errorf("trace %v: no exact counter measured", trace)
				}
				for name, v := range ea {
					if v == 0 || eb[name] != v {
						t.Errorf("trace %v: exact counter %s = %v, then %v", trace, name, v, eb[name])
					}
				}
				if trace {
					if _, err := os.Stat(a.TraceFile); err != nil {
						t.Errorf("span file: %v", err)
					}
					if len(a.SelfTimes) == 0 {
						t.Error("traced run folded no spans")
					}
				}
			}
		})
	}
}

func TestWatchdog(t *testing.T) {
	var fired atomic.Bool
	hung := make(chan struct{})
	wd := startWatchdog(20*time.Millisecond, func() { fired.Store(true); close(hung) })
	defer wd.close()
	// Idle, or busy with ops that finish: no alarm.
	for i := 0; i < 10; i++ {
		wd.begin()
		time.Sleep(5 * time.Millisecond)
		wd.end()
	}
	time.Sleep(50 * time.Millisecond)
	if fired.Load() {
		t.Fatal("watchdog fired with nothing in flight")
	}
	// An op that never returns.
	wd.begin()
	select {
	case <-hung:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire on a hung op")
	}
}

// TestHangIsAFailure checks the accounting of a hang: one more attempted
// op, failed, and a run that is not correct.
func TestHangIsAFailure(t *testing.T) {
	rep := &runReport{Workload: "serve-kth-fat", Hung: true}
	if err := rep.finish(map[string]metricValue{}); err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 1 || rep.Attempted != 1 {
		t.Errorf("hung run: correct %v, failed %d of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	// One stalled segment out of five does not set the number.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1
		if i >= 40 && i < 60 {
			lat[i] = 100
		}
	}
	if got := segmentedPercentile(lat, 5, 0.9); got != 1 {
		t.Errorf("segmented p90 = %v, want 1", got)
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
}

// report builds a gated report file with the given op_ms_p50 values, one
// run per value, seeds 1, 2, ...
func reportWith(t *testing.T, opMs []float64, words float64) string {
	t.Helper()
	var rf reportFile
	for i, v := range opMs {
		run := runReport{Workload: "serve-kth-fat", Seed: int64(i + 1)}
		for _, d := range endToEndDefs {
			m := metricValue{Name: d.name, Unit: d.unit, Value: 1, Exact: d.exact, Applies: true}
			switch d.name {
			case "op_ms_p50":
				m.Value = v
			case "words_per_op":
				m.Value = words
			}
			run.Metrics = append(run.Metrics, m)
		}
		rf.Runs = append(rf.Runs, run)
	}
	b, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	base := reportWith(t, steady, 195)
	cases := []struct {
		name string
		b    string
		code int
		want string
	}{
		{"same", reportWith(t, steady, 195), 0, "0 regressions"},
		{"slower", reportWith(t, []float64{15, 15.1, 14.9, 15, 15.05}, 195), 1, "REGRESSION"},
		{"faster", reportWith(t, []float64{5, 5.1, 4.9, 5, 5.05}, 195), 0, "0 regressions"},
		{"noisy", reportWith(t, []float64{6, 10, 14, 18, 22}, 195), 0, "UNRESOLVED"},
		{"counter", reportWith(t, steady, 196), 1, "CHANGED"},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		code := compareFiles(specPath, base, tc.b, &out, &errOut)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", tc.name, code, tc.code, tc.want, out.String(), errOut.String())
		}
	}
}
