package serve

import (
	"reflect"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
)

// TestServeScheduleExploration is the serving layer's share of the
// schedule exploration (internal/experiments has the stepper families):
// all three query kinds — Kth and DeleteMin in one workload, Kth and
// TopKFreq in another — served at full inflight depth on the simexec
// executor under every policy and several seeds must give, query by
// query, the answers, batch sizes and attributed meters a production
// machine gives serving them strictly one at a time. The doorbells are
// external Posts from the dispatcher goroutine, so unlike a pure stepper
// run these schedules also vary with the host; the outcome may not.
func TestServeScheduleExploration(t *testing.T) {
	const p = 8
	prod := func() *comm.Machine {
		cfg := comm.DefaultConfig(p)
		cfg.Workers = 3
		return comm.NewMachine(cfg)
	}
	one := Config{MaxInflight: 1, BatchMax: 1, Seed: 31}
	deep := Config{MaxInflight: 6, BatchMax: 4, Seed: 31}

	shards, sorted := mkUniqueShards(p, 23)
	n := int64(len(sorted))
	mixed := []mixedQuery{
		{false, 1}, {true, 5}, {false, n / 2}, {true, 37},
		{false, n}, {true, 64}, {true, 11}, {false, n / 3},
	}
	m := prod()
	wantMixed := runServedMixed(t, m, shards, mixed, one, false)
	m.Close()

	skewed, _ := mkSkewedShards(p, 77)
	var ns int64
	for _, sh := range skewed {
		ns += int64(len(sh))
	}
	freqs := []freqQuery{
		{true, 4}, {false, 1}, {true, 8}, {false, ns / 2},
		{true, 2}, {false, ns}, {true, 6}, {false, 17},
	}
	m = prod()
	wantFreq := runServedFreq(t, m, skewed, freqs, one, false)
	m.Close()

	for seed := int64(1); seed <= 4; seed++ {
		for _, pol := range simexec.Policies {
			m, _ := simexec.New(comm.DefaultConfig(p), seed, pol)
			if got := runServedMixed(t, m, shards, mixed, deep, true); !reflect.DeepEqual(got, wantMixed) {
				t.Errorf("seed %d policy %s: Kth/DeleteMin outcomes diverge\n  want: %+v\n  got:  %+v", seed, pol, wantMixed, got)
			}
			m, _ = simexec.New(comm.DefaultConfig(p), seed, pol)
			if got := runServedFreq(t, m, skewed, freqs, deep, true); !reflect.DeepEqual(got, wantFreq) {
				t.Errorf("seed %d policy %s: Kth/TopKFreq outcomes diverge\n  want: %+v\n  got:  %+v", seed, pol, wantFreq, got)
			}
		}
	}
}
