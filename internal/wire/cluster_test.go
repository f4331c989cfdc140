package wire_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/wire"
	_ "commtopk/internal/wire/wireprogs"
)

// TestMain makes the test binary usable as its own worker executable: a
// re-exec'd child sees the rendezvous environment and never reaches
// m.Run(). Every registration in this package's (and wireprogs') init
// runs before MaybeWorker, so leader and workers agree on programs.
func TestMain(m *testing.M) {
	wire.MaybeWorker()
	os.Exit(m.Run())
}

// crashVictim: the PE named by args[0] kills its whole process mid-run
// while everyone else blocks on a message that will never arrive — the
// worker-death scenario the teardown path must unwind without hanging.
func init() {
	wire.RegisterProg("test.crash", func(pe *comm.PE, args []uint64) uint64 {
		if pe.Rank() == int(args[0]) {
			os.Exit(3)
		}
		pe.Recv(int(args[0]), 1)
		return 0
	})
}

// progArgs returns the differential battery: every registered program
// with arguments sized for test time at machine size p.
func progArgs(p int) map[string][]uint64 {
	return map[string][]uint64{
		"collectives": {42, uint64(8 + p%5)},
		"kth":         {7, 96, uint64(int64(p) * 96 / 3)},
		"deletemin":   {11, 64, uint64(4 * p), 3},
		"mtopk":       {13, 48, 3, 6},
		"freq":        {17, 256, 48, 8},
	}
}

func sameStats(a, b comm.Stats) bool {
	return a.TotalWords == b.TotalWords && a.MaxSentWords == b.MaxSentWords &&
		a.MaxRecvWords == b.MaxRecvWords && a.TotalSends == b.TotalSends &&
		a.MaxSends == b.MaxSends &&
		math.Float64bits(a.MaxClock) == math.Float64bits(b.MaxClock)
}

// TestWireDifferential pins the wire backend bit-identical — results AND
// meters — to a single-process mailbox run of the same programs, across
// process splits of the PE range.
func TestWireDifferential(t *testing.T) {
	for _, tc := range []struct{ p, procs int }{
		{4, 2}, {4, 4}, {16, 2}, {16, 3}, {64, 4},
	} {
		t.Run(fmt.Sprintf("p%d_procs%d", tc.p, tc.procs), func(t *testing.T) {
			if testing.Short() && tc.p > 16 {
				t.Skip("short mode")
			}
			cfg := wire.Config{P: tc.p, Procs: tc.procs, Seed: 5, ShutdownTimeout: 20 * time.Second}
			c, err := wire.Spawn(cfg)
			if err != nil {
				t.Fatalf("Spawn: %v", err)
			}
			defer c.Close()
			for prog, args := range progArgs(tc.p) {
				wres, wst, err := c.Run(prog, args)
				if err != nil {
					t.Fatalf("%s: wire run: %v", prog, err)
				}
				lres, lst, err := wire.RunLocal(cfg, prog, args)
				if err != nil {
					t.Fatalf("%s: local run: %v", prog, err)
				}
				for r := range lres {
					if wres[r] != lres[r] {
						t.Errorf("%s: rank %d result %#x (wire) != %#x (mailbox)", prog, r, wres[r], lres[r])
					}
				}
				if !sameStats(wst, lst) {
					t.Errorf("%s: stats diverge:\n  wire:    %+v\n  mailbox: %+v", prog, wst, lst)
				}
			}
		})
	}
}

// TestWireTCP runs one differential case over the TCP dialer seam.
func TestWireTCP(t *testing.T) {
	cfg := wire.Config{P: 8, Procs: 2, Network: "tcp", Seed: 3}
	c, err := wire.Spawn(cfg)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer c.Close()
	args := []uint64{21, 6}
	wres, wst, err := c.Run("collectives", args)
	if err != nil {
		t.Fatalf("wire run: %v", err)
	}
	lres, lst, err := wire.RunLocal(cfg, "collectives", args)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	for r := range lres {
		if wres[r] != lres[r] {
			t.Fatalf("rank %d: %#x != %#x", r, wres[r], lres[r])
		}
	}
	if !sameStats(wst, lst) {
		t.Fatalf("stats diverge: %+v vs %+v", wst, lst)
	}
}

// TestWireRepeatedRuns reuses one cluster for several runs, checking the
// per-run stat reset and tag-protocol state stay coherent across runs.
func TestWireRepeatedRuns(t *testing.T) {
	cfg := wire.Config{P: 8, Procs: 2, Seed: 9}
	c, err := wire.Spawn(cfg)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer c.Close()
	m := comm.NewMachine(comm.Config{P: 8, Alpha: 1000, Beta: 1, Seed: 9})
	defer m.Close()
	args := []uint64{13, 7}
	var prev []uint64
	for round := 0; round < 3; round++ {
		res, st, err := c.Run("collectives", args)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if prev != nil {
			for r := range res {
				if res[r] != prev[r] {
					t.Fatalf("round %d: rank %d drifted: %#x != %#x", round, r, res[r], prev[r])
				}
			}
		}
		prev = res
		if st.TotalWords == 0 || st.MaxClock == 0 {
			t.Fatalf("round %d: empty stats %+v", round, st)
		}
	}
}

// TestWireUnknownProgram: a run of an unregistered program fails cleanly
// and the cluster stays usable.
func TestWireUnknownProgram(t *testing.T) {
	c, err := wire.Spawn(wire.Config{P: 4, Procs: 2})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer c.Close()
	if _, _, err := c.Run("no.such.program", nil); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("got %v, want not-registered error", err)
	}
	if _, _, err := c.Run("collectives", []uint64{1, 4}); err != nil {
		t.Fatalf("cluster unusable after bad program name: %v", err)
	}
}

// TestWorkerCrashTeardown kills a worker process mid-run: the leader's
// Run must return an error (not hang), Close must reap the dead process,
// and no goroutines may leak.
func TestWorkerCrashTeardown(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := wire.Spawn(wire.Config{P: 8, Procs: 2, ShutdownTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	type runOut struct {
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		_, _, err := c.Run("test.crash", []uint64{6}) // rank 6 lives in worker 1
		done <- runOut{err}
	}()
	select {
	case out := <-done:
		if out.err == nil {
			t.Error("Run succeeded despite worker death")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after worker death")
	}
	// The dead cluster refuses further runs with the recorded cause.
	if _, _, err := c.Run("collectives", []uint64{1, 4}); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Errorf("post-crash Run: got %v, want dead-cluster error", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed: // force teardown: exit status of the killed worker is not an error
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung after worker death")
	}
	// All transport goroutines (readers, link writers) must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterCloseIdempotent: Close twice, and Close without any run.
func TestClusterCloseIdempotent(t *testing.T) {
	c, err := wire.Spawn(wire.Config{P: 4, Procs: 2})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := c.Run("collectives", []uint64{1, 4}); err == nil {
		t.Fatal("Run on closed cluster succeeded")
	}
}

// TestSingleProcCluster: Procs=1 degenerates to a plain in-process
// machine behind the same API.
func TestSingleProcCluster(t *testing.T) {
	cfg := wire.Config{P: 4, Procs: 1, Seed: 2}
	c, err := wire.Spawn(cfg)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer c.Close()
	wres, wst, err := c.Run("kth", []uint64{3, 32, 40})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lres, lst, err := wire.RunLocal(cfg, "kth", []uint64{3, 32, 40})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if wres[0] != lres[0] || !sameStats(wst, lst) {
		t.Fatalf("degenerate cluster diverges: %v %+v vs %v %+v", wres, wst, lres, lst)
	}
}
