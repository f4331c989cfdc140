package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// Schedule exploration. Results and all six comm.Stats fields of an SPMD
// program are defined not to depend on how its PEs interleave or in which
// order their messages arrive; production tests that on whatever the
// host's cores happen to produce. Here every family of the catalog
// (fuzzOps: the collectives, sel Kth/KthSorted/MSSelect, bpq DeleteMin
// churn, mtopk DTA/RDTA/TopK, freq PAC/EC, agg PAC/ECSum, redist Balance, bnb
// Solve — serve's three query kinds have their own exploration in
// internal/serve) runs under many seeded schedules of the simexec
// executor, every policy in rotation, as blocking bodies (which simexec
// schedules as the coroutines they are) and — for sequences whose ops
// all have a stepper form — as steppers, and each run must equal the
// production runs — blocking bodies and, where they exist, RunAsync at
// w ∈ {1, 4, default} — bit for bit. A failure names the seed, policy and
// body form: that triple replays the schedule.

// exploreSeq establishes fs's outcome on production machines (which must
// agree among themselves), then runs it under n seeded schedules, seeds
// seed0…seed0+n−1, policies in rotation, each schedule with blocking
// bodies and, if fs has a stepper form, with steppers. It returns the
// number of simexec runs.
func exploreSeq(t *testing.T, p int, fs fuzzSeq, seed0 int64, n int) int {
	t.Helper()
	catalog := fuzzOps()
	describe := func() string {
		d := fmt.Sprintf("p=%d", p)
		for i, oi := range fs.ops {
			d += fmt.Sprintf(" %s(%d)", catalog[oi].name, fs.prms[i])
		}
		return d
	}
	var refRes [][]any
	var refStats comm.Stats
	check := func(who string, res [][]any, stats comm.Stats) {
		t.Helper()
		if refRes == nil {
			refRes, refStats = res, stats
			return
		}
		for i := range res {
			if !reflect.DeepEqual(refRes[i], res[i]) {
				t.Fatalf("%s: %s: op %d (%s) diverges\nwant: %v\ngot:  %v",
					describe(), who, i, catalog[fs.ops[i]].name, refRes[i], res[i])
			}
		}
		if stats != refStats {
			t.Fatalf("%s: %s: stats diverge\nwant: %+v\ngot:  %+v", describe(), who, refStats, stats)
		}
	}
	stepper := fs.stepperForm()
	for _, w := range []int{1, 4, 0} {
		cfg := comm.DefaultConfig(p)
		cfg.Workers = w
		if stepper {
			res, stats := runFuzzStepper(comm.NewMachine(cfg), fs)
			check(fmt.Sprintf("production RunAsync w=%d", w), res, stats)
		}
		res, stats := runFuzzBlocking(comm.NewMachine(cfg), fs)
		check(fmt.Sprintf("production blocking w=%d", w), res, stats)
	}
	runs := 0
	for i := 0; i < n; i++ {
		seed, pol := seed0+int64(i), simexec.Policies[i%len(simexec.Policies)]
		if stepper {
			m, _ := simexec.New(comm.DefaultConfig(p), seed, pol)
			res, stats := runFuzzStepper(m, fs)
			check(fmt.Sprintf("simexec seed %d policy %s RunAsync", seed, pol), res, stats)
			runs++
		}
		m, _ := simexec.New(comm.DefaultConfig(p), seed, pol)
		res, stats := runFuzzBlocking(m, fs)
		check(fmt.Sprintf("simexec seed %d policy %s blocking", seed, pol), res, stats)
		runs++
	}
	return runs
}

// TestScheduleExploration is the tier-1 exploration: every catalog op on
// its own at two machine sizes, then random 3–6-op sequences (where pooled
// stepper state, its buffers and tag sequences carry over between ops) at
// three. exploreScale multiplies the schedules per program: 1 in tier-1
// (≥ 10³ schedules, checked, counting stepper and blocking runs), 100
// under -tags long (≥ 10⁵).
func TestScheduleExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule exploration skipped in -short mode")
	}
	start := time.Now()
	schedules := 0
	catalog := fuzzOps()
	for oi := range catalog {
		for _, p := range []int{4, 16} {
			n := 16 * exploreScale
			schedules += exploreSeq(t, p, fuzzSeq{ops: []int{oi}, prms: []int64{int64(101 + 7*oi + p)}}, int64(1000*oi+p), n)
		}
	}
	seqRng := xrand.New(4242)
	for _, p := range []int{4, 16, 64} {
		for it := 0; it < 12; it++ {
			n := 10 * exploreScale
			if p == 64 {
				n = 5 * exploreScale
			}
			schedules += exploreSeq(t, p, makeFuzzSeq(seqRng, 3+seqRng.Intn(4)), int64(100000*p+1000*it), n)
		}
	}
	if want := 1000 * exploreScale; schedules < want {
		t.Errorf("explored %d schedules, want ≥ %d", schedules, want)
	}
	t.Logf("%d schedules (stepper and blocking) over %d families, all bit-identical, %.1fs", schedules, len(catalog), time.Since(start).Seconds())
}

// runFuzzGuarded runs fs on m — as steppers where it can, as blocking
// bodies otherwise — and reports any way the run
// went wrong — an error, a stall (nothing runnable, nothing in flight: the
// watchdog aborts the machine, which wakes the executor), or an outcome
// different from want.
func runFuzzGuarded(m *comm.Machine, fs fuzzSeq, wantRes [][]any, wantStats comm.Stats) error {
	defer m.Close()
	results := newFuzzResults(fs, m.P())
	watchdog := time.AfterFunc(10*time.Second, func() { m.AbortExternal(errors.New("stalled")) })
	var err error
	if fs.stepperForm() {
		err = m.RunAsync(fuzzBody(fs, results))
	} else {
		err = m.Run(fuzzBlockingBody(fs, results))
	}
	watchdog.Stop()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(results, wantRes) || m.Stats() != wantStats {
		return errors.New("outcome differs")
	}
	return nil
}

// TestExplorationIsSensitive is the exploration's self-test. A harness
// that cannot fail proves nothing, so: (1) the BreakFIFO policy, which
// delivers a stream's newest message first, must be caught — as a tag
// mismatch, a stall or a wrong outcome — on at least 9 of 10 random
// sequences; (2) one seed is one schedule: two runs of a program under it
// have the same event trace, and another seed has a different one — as
// steppers and as blocking bodies.
func TestExplorationIsSensitive(t *testing.T) {
	const p = 16
	seqRng := xrand.New(777)
	caught := 0
	for it := 0; it < 10; it++ {
		fs := makeFuzzSeq(seqRng, 3+seqRng.Intn(4))
		wantRes, wantStats := runFuzzReference(p, fs)
		for seed := int64(0); seed < 3; seed++ {
			m, _ := simexec.New(comm.DefaultConfig(p), seed, simexec.BreakFIFO)
			if runFuzzGuarded(m, fs, wantRes, wantStats) != nil {
				caught++
				break
			}
		}
	}
	t.Logf("FIFO violation caught on %d of 10 sequences", caught)
	if caught < 9 {
		t.Errorf("a policy that violates per-sender FIFO was caught on %d of 10 sequences, want ≥ 9", caught)
	}

	// The stepper form needs a sequence whose ops all have one.
	fs := makeFuzzSeq(seqRng, 5)
	stepFS := fs
	for !stepFS.stepperForm() {
		stepFS = makeFuzzSeq(seqRng, 5)
	}
	for _, form := range []struct {
		name string
		run  func(*comm.Machine, fuzzSeq) ([][]any, comm.Stats)
		fs   fuzzSeq
	}{{"stepper", runFuzzStepper, stepFS}, {"blocking", runFuzzBlocking, fs}} {
		trace := func(seed int64, pol simexec.Policy) (uint64, int64) {
			m, ex := simexec.New(comm.DefaultConfig(p), seed, pol)
			form.run(m, form.fs)
			return ex.TraceHash(), ex.Events()
		}
		for _, pol := range simexec.Policies {
			h1, n1 := trace(5, pol)
			h2, n2 := trace(5, pol)
			if h1 != h2 || n1 != n2 {
				t.Errorf("%s, policy %s: one seed, two traces: %x (%d events) vs %x (%d events)", form.name, pol, h1, n1, h2, n2)
			}
			if h3, _ := trace(6, pol); h3 == h1 && pol != simexec.NewestFirst {
				t.Errorf("%s, policy %s: seeds 5 and 6 produced the same trace %x", form.name, pol, h1)
			}
		}
	}
}
