package sel

import (
	"fmt"
	"reflect"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/qsel"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// KthStep must be bit-identical to the blocking Kth — per-PE results and
// metered statistics — whether driven by RunAsync on the scheduler
// (including w < p, where mid-selection suspensions cross worker
// boundaries) or as blocking bodies whose messages the reference executor
// carries.
func TestKthStepMatchesBlockingAcrossBackends(t *testing.T) {
	const perPE = 256
	for _, p := range []int{1, 3, 16, 64} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			locals := make([][]uint64, p)
			for r := 0; r < p; r++ {
				locals[r] = gen.SelectionInput(xrand.NewPE(41, r), perPE, 12)
			}
			n := int64(p * perPE)
			for _, k := range []int64{1, n / 3, n / 2, n} {
				k := k
				// Blocking reference on the reference executor.
				mc := simexec.Reference(p)
				refRes := make([]uint64, p)
				mc.MustRun(func(pe *comm.PE) {
					refRes[pe.Rank()] = Kth(pe, locals[pe.Rank()], k, xrand.NewPE(97, pe.Rank()))
				})
				refStats := mc.Stats()
				for _, w := range []int{0, 1, 4} {
					cfg := comm.DefaultConfig(p)
					cfg.Workers = w
					m := comm.NewMachine(cfg)
					res := make([]uint64, p)
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						return KthStep(pe, locals[pe.Rank()], k, xrand.NewPE(97, pe.Rank()),
							func(v uint64) { res[pe.Rank()] = v })
					})
					for r := 0; r < p; r++ {
						if res[r] != refRes[r] {
							t.Errorf("k=%d w=%d rank %d: KthStep %d vs blocking %d", k, w, r, res[r], refRes[r])
						}
					}
					if s := m.Stats(); s != refStats {
						t.Errorf("k=%d w=%d: stats diverge:\n  blocking reference: %+v\n  stepper production: %+v",
							k, w, refStats, s)
					}
					m.Close()
				}
			}
		})
	}
}

// TestKthStepRepeatedRunsReusePooledState exercises the resume-path
// reuse across many RunAsync cycles on one machine: the pooled kthStep
// (and every collective stepper underneath) is recycled per op, and
// stale state from a previous selection must never leak into the next.
func TestKthStepRepeatedRunsReusePooledState(t *testing.T) {
	const p, perPE, rounds = 8, 128, 10
	cfg := comm.DefaultConfig(p)
	cfg.Workers = 2
	m := comm.NewMachine(cfg)
	defer m.Close()
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(5, r), perPE, 12)
	}
	n := int64(p * perPE)
	for round := 0; round < rounds; round++ {
		k := 1 + (n*int64(round))/int64(rounds)
		var want uint64
		m.MustRun(func(pe *comm.PE) {
			v := Kth(pe, locals[pe.Rank()], k, xrand.NewPE(int64(round), pe.Rank()))
			if pe.Rank() == 0 {
				want = v
			}
		})
		res := make([]uint64, p)
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return KthStep(pe, locals[pe.Rank()], k, xrand.NewPE(int64(round), pe.Rank()),
				func(v uint64) { res[pe.Rank()] = v })
		})
		for r := 0; r < p; r++ {
			if res[r] != want {
				t.Fatalf("round %d rank %d: got %d want %d", round, r, res[r], want)
			}
		}
	}
}

// TestKthStepAllocParity pins the pooling: steady-state continuation
// selection must not allocate more than the blocking form. The protocol
// itself allocates nothing since the level became two pooled tree sweeps
// (the gather materializations and broadcast boxing are gone: 24 → 18
// allocs/op blocking, 15 → 9 stepper at p = 8); what is left is this
// test's RNG per PE and the blocking run's goroutines.
func TestKthStepAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool is randomized)")
	}
	const p, perPE = 8, 512
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		locals[r] = gen.SelectionInput(xrand.NewPE(11, r), perPE, 12)
	}
	k := int64(p * perPE / 2)
	measure := func(run func(m *comm.Machine)) float64 {
		m := comm.NewMachine(comm.DefaultConfig(p))
		defer m.Close()
		for i := 0; i < 3; i++ {
			run(m)
		}
		return testing.AllocsPerRun(10, func() { run(m) })
	}
	blocking := measure(func(m *comm.Machine) {
		m.MustRun(func(pe *comm.PE) {
			Kth(pe, locals[pe.Rank()], k, xrand.NewPE(13, pe.Rank()))
		})
	})
	stepper := measure(func(m *comm.Machine) {
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return KthStep(pe, locals[pe.Rank()], k, xrand.NewPE(13, pe.Rank()), nil)
		})
	})
	// Identical protocol, pooled state: the continuation form must sit
	// within noise of the blocking form (slack for pool refills).
	if stepper > blocking+float64(p)*2 {
		t.Errorf("continuation selection allocates %.1f/op vs blocking %.1f/op; stepper state pooling regressed",
			stepper, blocking)
	}
	// The sorted form shares the state machine and its pool and runs one
	// collective fewer, so it has nothing to allocate beyond that.
	sorted, _ := sortedShards(locals)
	sortedForm := measure(func(m *comm.Machine) {
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return KthSortedStep(pe, sorted[pe.Rank()], int64(p*perPE), k, xrand.NewPE(13, pe.Rank()), nil)
		})
	})
	if sortedForm > blocking+float64(p)*2 {
		t.Errorf("sorted-form selection allocates %.1f/op vs blocking %.1f/op", sortedForm, blocking)
	}
	// MSSelect is the sorted form on the prefixes, its per-PE stream
	// reseeded in place: blocking, it has nothing to allocate beyond the
	// blocking Kth either.
	msForm := measure(func(m *comm.Machine) {
		m.MustRun(func(pe *comm.PE) {
			MSSelect(pe, SliceSeq[uint64](sorted[pe.Rank()]), k, xrand.New(13))
		})
	})
	if msForm > blocking+float64(p)*2 {
		t.Errorf("MSSelect allocates %.1f/op vs the blocking Kth's %.1f/op", msForm, blocking)
	}
	t.Logf("allocs/op: blocking %.1f, stepper %.1f, sorted form %.1f, MSSelect %.1f", blocking, stepper, sortedForm, msForm)
}

// TestKthReleaseKeepsNoShardSlice: a released kthStep waits in its PE's
// pool for the next selection, so a slice it kept of the caller's shard —
// the window, band b, the shard itself — would pin that shard until
// then (a retired server's sorted copy, say). After selections in both
// forms, on every shape and at ranks that reach the miss, peel and rate-1
// paths, every slice field of the state and of every lane slot but the
// state's own buffers (the lanes, the header, the sample, the verdicts,
// a lane's work) is nil, those share no memory with the shard, and work
// is no longer than it.
func TestKthReleaseKeepsNoShardSlice(t *testing.T) {
	const p, n = 4, 2048
	owned := map[string]bool{"lanes": true, "hdr": true, "sample": true, "verdicts": true, "work": true}
	for _, shape := range shardShapes {
		shards := shape.gen(xrand.New(31), n, p)
		sorted, _ := sortedShards(shards)
		for _, form := range []struct {
			name   string
			shards [][]uint64
		}{{"unsorted", shards}, {"sorted", sorted}} {
			m := comm.NewMachine(comm.DefaultConfig(p))
			for _, k := range []int64{1, 2, n / 3, n} {
				m.MustRun(func(pe *comm.PE) {
					shard := form.shards[pe.Rank()]
					nn, sorted := int64(-1), form.name == "sorted"
					if sorted {
						nn = n
					}
					st := newKthStep(pe, shard, nn, k, sorted, xrand.NewPE(k, pe.Rank()), nil, false)
					comm.RunSteps(pe, st)
					st.release(pe)
					name := fmt.Sprintf("%s %s k=%d", shape.name, form.name, k)
					seen := checkReleased(t, name, reflect.ValueOf(st).Elem(), owned, shard)
					slots := st.lanes[:cap(st.lanes)]
					for i := range slots {
						seen += checkReleased(t, name, reflect.ValueOf(&slots[i]).Elem(), owned, shard)
					}
					if seen < 8 || len(slots) != 1 || len(slots[0].work) > len(shard) {
						t.Errorf("%s: %d slice fields, %d lane slots, work %d for a shard of %d", name, seen, len(slots), len(slots[0].work), len(shard))
					}
				})
			}
			m.Close()
		}
	}
}

// checkReleased reports every slice field of v, a released state, that is
// not one of the owned buffers and is not nil, and every owned one that
// shares memory with shard. It returns the number of slice fields.
func checkReleased(t *testing.T, name string, v reflect.Value, owned map[string]bool, shard []uint64) int {
	t.Helper()
	seen := 0
	for i := 0; i < v.NumField(); i++ {
		f, field := v.Field(i), v.Type().Field(i).Name
		if f.Kind() != reflect.Slice {
			continue
		}
		seen++
		switch {
		case !owned[field] && !f.IsNil():
			t.Errorf("%s: released state keeps %s (len %d)", name, field, f.Len())
		case owned[field] && f.Type().Elem().Kind() == reflect.Uint64 && overlaps(f, reflect.ValueOf(shard)):
			t.Errorf("%s: the state's %s shares memory with the shard", name, field)
		}
	}
	return seen
}

// overlaps reports whether the backing arrays of two slices share memory.
func overlaps(a, b reflect.Value) bool {
	if a.Cap() == 0 || b.Cap() == 0 {
		return false
	}
	sz := a.Type().Elem().Size()
	a0, b0 := a.Pointer(), b.Pointer()
	return a0 < b0+uintptr(b.Cap())*sz && b0 < a0+uintptr(a.Cap())*sz
}

// TestKthLocalRankMatchesRank: SmallestK reads the result's local rank
// split off the selection's narrowing history (localRank) instead of a
// pass over the shard, so on every shape, in both forms, at ranks that
// end in the min-reduction, a rate-1 band, a tie and a peel, it must be
// qsel.Rank(shard, result) on every PE.
func TestKthLocalRankMatchesRank(t *testing.T) {
	const n = 3000
	var counted, scanned int // results whose tie group was counted resp. scanned at the end
	for _, p := range []int{1, 4} {
		m := comm.NewMachine(comm.DefaultConfig(p))
		for si, shape := range shardShapes {
			shards := shape.gen(xrand.New(int64(7*p+si)), n, p)
			sorted, _ := sortedShards(shards)
			for _, form := range []struct {
				sorted bool
				shards [][]uint64
			}{{false, shards}, {true, sorted}} {
				for _, k := range []int64{1, 2, n / 3, n / 2, 7 * n / 10, n - 1, n} {
					for seed := int64(0); seed < 3; seed++ {
						m.MustRun(func(pe *comm.PE) {
							shard := form.shards[pe.Rank()]
							st := newKthStep(pe, shard, n, k, form.sorted, xrand.NewPE(seed, pe.Rank()), nil, false)
							comm.RunSteps(pe, st)
							b, e := st.localRank()
							wb, we := qsel.Rank(shard, st.res)
							if b != wb || e != we {
								t.Errorf("p=%d %s sorted=%v k=%d seed=%d PE %d: localRank (%d, %d), Rank (%d, %d)",
									p, shape.name, form.sorted, k, seed, pe.Rank(), b, e, wb, we)
							}
							if pe.Rank() == 0 {
								if st.resIn == nil {
									counted++
								} else {
									scanned++
								}
							}
							st.release(pe)
						})
					}
				}
			}
		}
		m.Close()
	}
	if counted == 0 || scanned == 0 {
		t.Errorf("tie groups counted %d times, scanned %d times; want both", counted, scanned)
	}
}
