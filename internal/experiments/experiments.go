// Package experiments regenerates the paper's evaluation (Section 10):
// every figure and table has a function here producing the corresponding
// series, used by cmd/topkbench and the root-level benchmarks. The
// package's tests are the system-level guards: differentials against
// the reference executor (internal/simexec), schedule exploration,
// goroutine residency and the p = 65536 budget.
//
// Scaling note: the paper ran on 2048 cores with n/p up to 2^28; this
// harness runs p goroutines on one host with n/p defaulting to 2^20 (the
// shapes — who wins, scaling trends, crossovers — are preserved; absolute
// times are not comparable and not claimed). Accuracy parameters are
// rescaled where the paper's values would degenerate at the smaller n;
// each experiment's Notes field records the mapping.
//
// Reported columns:
//
//	work(ms)  — max over PEs of measured local compute time (wall time of
//	            the algorithm body minus time blocked on communication)
//	words/PE  — bottleneck communication volume (max over PEs, sent)
//	start/PE  — bottleneck startup count
//	T_model   — modeled time α·z + β·y along the critical path (the
//	            machine's virtual communication clock)
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"commtopk/internal/comm"
)

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Notes  string
	Header []string
	Rows   [][]string
}

// Render prints the table with aligned columns.
func (t *Table) Render(sb *strings.Builder) {
	sb.WriteString("== " + t.Title + " ==\n")
	if t.Notes != "" {
		for _, line := range strings.Split(t.Notes, "\n") {
			sb.WriteString("# " + line + "\n")
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	sb.WriteByte('\n')
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// measurement aggregates one timed SPMD phase.
type measurement struct {
	maxWork  time.Duration // max over PEs of (body wall − comm wait)
	wall     time.Duration // total wall time of the phase
	stats    comm.Stats
	extra    map[string]float64
	extraMu  sync.Mutex
	workByPE []time.Duration
}

// runMeasured runs body on the machine, measuring per-PE local work.
// The machine's stats are reset before the run.
func runMeasured(m *comm.Machine, body func(pe *comm.PE)) *measurement {
	m.ResetStats()
	meas := &measurement{
		extra:    map[string]float64{},
		workByPE: make([]time.Duration, m.P()),
	}
	t0 := time.Now()
	m.MustRun(func(pe *comm.PE) {
		w0 := pe.WaitTime()
		b0 := time.Now()
		body(pe)
		work := time.Since(b0) - (pe.WaitTime() - w0)
		meas.workByPE[pe.Rank()] = work
	})
	meas.wall = time.Since(t0)
	for _, w := range meas.workByPE {
		if w > meas.maxWork {
			meas.maxWork = w
		}
	}
	meas.stats = m.Stats()
	return meas
}

// record stores an extra named metric (thread-safe, for use inside body).
func (m *measurement) record(key string, v float64) {
	m.extraMu.Lock()
	m.extra[key] += v
	m.extraMu.Unlock()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

func modelMs(clock float64) string {
	// α/β are unitless model parameters; report the clock in kilo-units
	// so typical runs land in a readable range.
	return fmt.Sprintf("%.1f", clock/1000)
}

// stdCols is the shared metric block appended to most rows.
func stdCols(meas *measurement) []string {
	return []string{
		ms(meas.maxWork),
		fmt.Sprintf("%d", meas.stats.BottleneckWords()),
		fmt.Sprintf("%d", meas.stats.MaxSends),
		modelMs(meas.stats.MaxClock),
	}
}

// stdHeader matches stdCols.
var stdHeader = []string{"work(ms)", "words/PE", "start/PE", "T_model"}

// PList returns the weak-scaling PE counts 1,2,4,...,pmax.
func PList(pmax int) []int {
	var out []int
	for p := 1; p <= pmax; p *= 2 {
		out = append(out, p)
	}
	return out
}
