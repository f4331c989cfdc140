package sel

import (
	"fmt"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// msTestSeq builds a locally sorted, globally unique input: PE r holds
// the keys {i·p + r}, i < perPE — strided so every PE owns a share of
// every value band.
func msTestSeq(p, r, perPE int) SliceSeq[uint64] {
	s := make([]uint64, perPE)
	for i := range s {
		s[i] = uint64(i*p + r)
	}
	return s
}

// msSelectStepper runs the exact selection engine (msSelectStep) as a
// stepper of its own and hands its result to out once it completes.
func msSelectStepper(pe *comm.PE, s Seq[uint64], k int64, shared *xrand.RNG, out func(v uint64, localLE int)) comm.Stepper {
	st := newMSSelectStep(pe, s, k, shared)
	return comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
		if h := st.Step(pe); h != nil {
			return h
		}
		v, n := st.resV, st.resN
		st.release(pe)
		out(v, n)
		return nil
	})
}

// amsSelectStepper is the one-lane flexible selection engine with its
// size sum (AMSSelect's) as a stepper of its own.
func amsSelectStepper(pe *comm.PE, s Seq[uint64], kmin, kmax int64, rng *xrand.RNG, out func(AMSResult[uint64])) comm.Stepper {
	return newAMSOneLane(pe, s, -1, kmin, kmax, rng, 1, out, true)
}

// The engines behind MSSelect and AMSSelect, run as steppers, must be
// bit-identical to the blocking forms — per-PE results and metered
// statistics — whether driven by RunAsync on the scheduler (including
// w < p) or as blocking bodies whose messages the reference executor
// carries: they are what AMSSelectNStep and DTA's lanes hand to a
// caller's stepper.
func TestMSSelectStepMatchesBlockingAcrossBackends(t *testing.T) {
	const perPE = 64
	for _, p := range []int{1, 3, 16, 64} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			n := int64(p * perPE)
			for _, k := range []int64{1, n / 3, n / 2, n} {
				mc := simexec.Reference(p)
				refV := make([]uint64, p)
				refN := make([]int, p)
				mc.MustRun(func(pe *comm.PE) {
					r := pe.Rank()
					refV[r], refN[r] = MSSelect[uint64](pe, msTestSeq(p, r, perPE), k, xrand.New(33))
				})
				refStats := mc.Stats()
				if refV[0] != uint64(k-1) {
					t.Fatalf("k=%d: blocking MSSelect = %d, want %d", k, refV[0], k-1)
				}
				for _, w := range []int{0, 1, 4} {
					cfg := comm.DefaultConfig(p)
					cfg.Workers = w
					m := comm.NewMachine(cfg)
					gotV := make([]uint64, p)
					gotN := make([]int, p)
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						r := pe.Rank()
						return msSelectStepper(pe, msTestSeq(p, r, perPE), k, xrand.New(33),
							func(v uint64, le int) { gotV[r], gotN[r] = v, le })
					})
					for r := 0; r < p; r++ {
						if gotV[r] != refV[r] || gotN[r] != refN[r] {
							t.Errorf("k=%d w=%d rank %d: stepper (%d, %d) vs blocking (%d, %d)",
								k, w, r, gotV[r], gotN[r], refV[r], refN[r])
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

func TestAMSSelectStepMatchesBlockingAcrossBackends(t *testing.T) {
	const perPE = 64
	for _, p := range []int{1, 3, 16, 64} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			n := int64(p * perPE)
			for _, kr := range [][2]int64{{1, 1}, {n / 4, n / 2}, {n, n}} {
				kmin, kmax := kr[0], kr[1]
				mc := simexec.Reference(p)
				ref := make([]AMSResult[uint64], p)
				mc.MustRun(func(pe *comm.PE) {
					r := pe.Rank()
					ref[r] = AMSSelect[uint64](pe, msTestSeq(p, r, perPE), kmin, kmax, xrand.NewPE(71, r))
				})
				refStats := mc.Stats()
				if ref[0].Count < kmin || ref[0].Count > kmax {
					t.Fatalf("[%d,%d]: blocking Count %d outside range", kmin, kmax, ref[0].Count)
				}
				for _, w := range []int{0, 1, 4} {
					cfg := comm.DefaultConfig(p)
					cfg.Workers = w
					m := comm.NewMachine(cfg)
					got := make([]AMSResult[uint64], p)
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						r := pe.Rank()
						return amsSelectStepper(pe, msTestSeq(p, r, perPE), kmin, kmax, xrand.NewPE(71, r),
							func(res AMSResult[uint64]) { got[r] = res })
					})
					for r := 0; r < p; r++ {
						if got[r] != ref[r] {
							t.Errorf("[%d,%d] w=%d rank %d: stepper %+v vs blocking %+v",
								kmin, kmax, w, r, got[r], ref[r])
						}
					}
					if s := m.Stats(); s != refStats {
						t.Errorf("[%d,%d] w=%d: stats diverge:\n  blocking reference: %+v\n  stepper production: %+v",
							kmin, kmax, w, refStats, s)
					}
					m.Close()
				}
			}
		})
	}
}

// The degenerate interval [k, k] on unique keys converges (3–7 rounds
// for these ks); on a two-value input no rank count lands in [k, k] and
// the window cannot narrow, so after amsMaxRounds the exact fallback —
// the exact engine on the window, a subSeq whose prefix it copies — answers.
// Either way stepper and blocking must agree bit for bit, and the
// threshold is the oracle's.
func TestAMSSelectStepTightIntervalFallback(t *testing.T) {
	const p, perPE = 8, 64
	n := int64(p * perPE)
	twoValues := func(_, r, perPE int) SliceSeq[uint64] {
		s := make([]uint64, perPE)
		for i := perPE / 2; i < perPE; i++ {
			s[i] = 1
		}
		return s
	}
	for _, in := range []struct {
		name     string
		seq      func(p, r, perPE int) SliceSeq[uint64]
		ks       []int64
		answer   func(k int64) uint64 // the oracle's rank-k element
		fallback bool
	}{
		{"unique", msTestSeq, []int64{7, n / 3, n - 5}, func(k int64) uint64 { return uint64(k - 1) }, false},
		{"two-values", twoValues, []int64{n / 3, n/2 + 1}, func(k int64) uint64 { return uint64(k-1) / uint64(n/2) }, true},
	} {
		for _, k := range in.ks {
			name := fmt.Sprintf("%s k=%d", in.name, k)
			mc := simexec.Reference(p)
			ref := make([]AMSResult[uint64], p)
			mc.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				ref[r] = AMSSelect[uint64](pe, in.seq(p, r, perPE), k, k, xrand.NewPE(5, r))
			})
			refStats := mc.Stats()
			if ref[0].Count != k || ref[0].Threshold != in.answer(k) {
				t.Fatalf("%s: %+v, want Count %d and Threshold %d", name, ref[0], k, in.answer(k))
			}
			if fell := ref[0].Rounds == amsMaxRounds; fell != in.fallback {
				t.Fatalf("%s: %d rounds: fallback %v, want %v", name, ref[0].Rounds, fell, in.fallback)
			}
			m := comm.NewMachine(comm.DefaultConfig(p))
			got := make([]AMSResult[uint64], p)
			m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
				r := pe.Rank()
				return amsSelectStepper(pe, in.seq(p, r, perPE), k, k, xrand.NewPE(5, r),
					func(res AMSResult[uint64]) { got[r] = res })
			})
			for r := 0; r < p; r++ {
				if got[r] != ref[r] {
					t.Errorf("%s rank %d: stepper %+v vs blocking %+v", name, r, got[r], ref[r])
				}
			}
			if s := m.Stats(); s != refStats {
				t.Errorf("%s: stats diverge", name)
			}
			m.Close()
		}
	}
}

// opaqueSeq hides a SliceSeq behind another type, so MSSelect copies its
// prefix instead of slicing it (the path a search tree takes).
type opaqueSeq struct{ SliceSeq[uint64] }

// msEdgeShapes are the inputs the prefix restriction could get wrong:
// empty sequences, sequences shorter than every useful k, and all keys on
// one PE. Keys are globally unique, as MSSelect requires.
var msEdgeShapes = []struct {
	name  string
	split func(sorted []uint64, p int) [][]uint64
}{
	{"skewed", func(g []uint64, p int) [][]uint64 { return distribute(g, p) }},
	{"some-empty", func(g []uint64, p int) [][]uint64 {
		parts := make([][]uint64, p)
		for i, v := range g {
			r := []int{0, 3, 4, 7}[i%4] % p
			parts[r] = append(parts[r], v)
		}
		return parts
	}},
	{"short", func(g []uint64, p int) [][]uint64 {
		parts := make([][]uint64, p)
		for i, v := range g[:3*p] {
			parts[i%p] = append(parts[i%p], v)
		}
		return parts
	}},
	{"one-pe", func(g []uint64, p int) [][]uint64 {
		parts := make([][]uint64, p)
		parts[p-1] = g
		return parts
	}},
}

// TestMSSelectEdgeCasesAgainstSortOracle: on every edge shape, at k = 1
// (the min-reduction base case), 2, the middle, total − 1 and total, with
// the prefix sliced and copied, MSSelect returns the oracle's element and
// every PE its exact local count — bit-identical results and meters
// whether blocking, under RunAsync, or on the seeded executor under every
// policy.
func TestMSSelectEdgeCasesAgainstSortOracle(t *testing.T) {
	const p, n = 8, 400
	_, sorted := globalSorted(xrand.New(61), n)
	for _, shape := range msEdgeShapes {
		parts := shape.split(sorted, p)
		var union []uint64
		for _, part := range parts {
			union = append(union, part...) // each part is ascending already
		}
		slices.Sort(union)
		total := int64(len(union))
		for _, k := range []int64{1, 2, total / 2, total - 1, total} {
			for _, opaque := range []bool{false, true} {
				name := fmt.Sprintf("%s k=%d opaque=%v", shape.name, k, opaque)
				seq := func(r int) Seq[uint64] {
					if opaque {
						return opaqueSeq{parts[r]}
					}
					return SliceSeq[uint64](parts[r])
				}
				check := func(mode string, vs []uint64, les []int) {
					var sum int64
					for r := range vs {
						if vs[r] != union[k-1] {
							t.Fatalf("%s %s: rank %d got %d, want %d", name, mode, r, vs[r], union[k-1])
						}
						if want := SliceSeq[uint64](parts[r]).CountLE(vs[r]); les[r] != want {
							t.Errorf("%s %s: rank %d local count %d, want %d", name, mode, r, les[r], want)
						}
						sum += int64(les[r])
					}
					if sum != k {
						t.Errorf("%s %s: local counts sum to %d", name, mode, sum)
					}
				}
				blocking := comm.NewMachine(comm.DefaultConfig(p))
				vs, les := make([]uint64, p), make([]int, p)
				blocking.MustRun(func(pe *comm.PE) {
					r := pe.Rank()
					vs[r], les[r] = MSSelect(pe, seq(r), k, xrand.New(7))
				})
				check("blocking", vs, les)
				want := blocking.Stats()
				blocking.Close()
				async := func(mode string, m *comm.Machine) {
					vs, les := make([]uint64, p), make([]int, p)
					m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
						r := pe.Rank()
						return msSelectStepper(pe, seq(r), k, xrand.New(7), func(v uint64, le int) { vs[r], les[r] = v, le })
					})
					check(mode, vs, les)
					if s := m.Stats(); s != want {
						t.Errorf("%s %s: stats %+v, blocking %+v", name, mode, s, want)
					}
					m.Close()
				}
				cfg := comm.DefaultConfig(p)
				cfg.Workers = 3
				async("async", comm.NewMachine(cfg))
				for _, pol := range simexec.Policies {
					m, _ := simexec.New(comm.DefaultConfig(p), k, pol)
					async("simexec/"+pol.String(), m)
				}
			}
		}
	}
}
