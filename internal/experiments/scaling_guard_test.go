package experiments

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// TestScaling65536WithinBudgets is the CI smoke for the large-p regime:
// a p = 65536 mailbox machine runs a suspension-heavy collective workload
// and the process must stay inside a 1.5 GiB memory budget (RSS as the
// runtime sees it: everything ever reserved from the
// OS, heap and goroutine stacks included) while the resident goroutine
// count stays at scheduler width, not PE count. Skipped under -short so
// quick local cycles are not taxed; CI runs it explicitly.
func TestScaling65536WithinBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("p=65536 smoke skipped in -short mode")
	}
	const p = 1 << 16
	const memBudgetBytes = 3 << 29
	baseline := runtime.NumGoroutine()
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	w := m.Workers()
	body := func(pe *comm.PE) {
		// Dissemination scan + reverse ring: tens of thousands of PE
		// bodies suspend at least once per run.
		coll.ExScanSum(pe, int64(pe.Rank()))
		tag := pe.NextCollTag()
		pe.Send((pe.Rank()-1+p)%p, tag, nil, 1)
		pe.Recv((pe.Rank()+1)%p, tag)
	}
	m.MustRun(body)
	m.MustRun(body)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.Sys > memBudgetBytes {
		t.Errorf("process reserved %.2f GiB from the OS at p=%d; budget is %.1f GiB",
			float64(ms.Sys)/(1<<30), p, float64(memBudgetBytes)/(1<<30))
	}

	deadline := time.Now().Add(5 * time.Second)
	goroutines := runtime.NumGoroutine()
	for time.Now().Before(deadline) && goroutines > baseline+w+2 {
		time.Sleep(10 * time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	if goroutines > baseline+w+2 {
		t.Errorf("resident goroutines %d (baseline %d) exceed w+O(1) with w=%d at p=%d",
			goroutines, baseline, w, p)
	}
}

// TestMidRunGoroutineResidency2048 is the tier-1 form of the mid-run
// residency guard; the p = 16384 form (over a minute) runs under
// -tags long (scaling_guard_long_test.go).
func TestMidRunGoroutineResidency2048(t *testing.T) { midRunGoroutineResidency(t, 2048) }

// midRunGoroutineResidency is the mid-run residency guard over the whole
// stepper set: O(w) goroutines are pinned for a *resident* machine
// elsewhere (suspended bodies retired between runs); this asserts the bound
// *while p-PE collectives are in flight*. The sampled window covers the
// collectives op (one selection level's steppers), the full stepper-form
// selection (sel.KthStep) and the sorted-input selection serve's Kth and
// DeleteMin run (sel.KthSortedStep) on per-rank sorted shards — most PEs
// are simultaneously waiting mid-collective at any sampled instant, and
// none of them may hold a goroutine. Skipped under -short.
func midRunGoroutineResidency(t *testing.T, p int) {
	if testing.Short() {
		t.Skip("mid-run residency guard skipped in -short mode")
	}
	const selPerPE = 64
	baseline := runtime.NumGoroutine()
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	w := m.Workers()
	if w >= p/4 {
		t.Skipf("GOMAXPROCS too large for a meaningful bound (w=%d, p=%d)", w, p)
	}
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(3, r), selPerPE, 12)
	}
	// Per-rank sorted shards for the KthSortedStep workload, the
	// resident index a server reads.
	sorted := make([][]uint64, p)
	for r := range sorted {
		sorted[r] = slices.Sorted(slices.Values(locals[r]))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			m.MustRunAsync(scalingCollectivesStart)
		}
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return sel.KthStep(pe, locals[pe.Rank()], int64(p*selPerPE/2),
				xrand.NewPE(17, pe.Rank()), nil)
		})
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return sel.KthSortedStep(pe, sorted[pe.Rank()], int64(p*selPerPE), int64(p*selPerPE/4),
				xrand.NewPE(19, pe.Rank()), nil)
		})
	}()
	var maxMid, samples int64
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			if g := int64(runtime.NumGoroutine()); g > maxMid {
				maxMid = g
			}
			samples++
			time.Sleep(200 * time.Microsecond)
		}
	}
	if samples == 0 {
		t.Log("run finished before the first sample; mid-run residency not observed")
	}
	// +3: the run goroutine, the test goroutine, scheduling slack.
	if maxMid > int64(baseline+w+3) {
		t.Errorf("mid-collective goroutines reached %d (baseline %d, w=%d); want ≤ w+O(1) — continuation scheduling broken",
			maxMid, baseline, w)
	}
}
