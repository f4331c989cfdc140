package coll

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"commtopk/internal/comm"
)

// The scalar all-reduce and exclusive scan are the vector engines run on
// a one-element accumulator. These tests pin that they are the vector
// forms — bit-identical values and all six Stats fields — and that
// AllToAll hands back owned copies of what it receives.

// scalarForm is one way to compute a scalar collective: run fills res
// with every rank's result.
type scalarForm struct {
	name string
	run  func(m *comm.Machine, res []float64)
}

// val is rank r's contribution; float sums make the operand order
// observable.
func val(pe *comm.PE) float64 { return 0.1*float64(pe.Rank()) + 1/3.0 }

func addF64(a, b float64) float64 { return a + b }

func TestScalarCollectivesAreVectorForms(t *testing.T) {
	allReduce := []scalarForm{
		{"AllReduceIntoStep", func(m *comm.Machine, res []float64) {
			m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
				return AllReduceIntoStep(pe, nil, []float64{val(pe)}, addF64, func(v []float64) { res[pe.Rank()] = v[0] })
			})
		}},
		{"AllReduceScalarStep", func(m *comm.Machine, res []float64) {
			m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
				return AllReduceScalarStep(pe, val(pe), addF64, func(v float64) { res[pe.Rank()] = v })
			})
		}},
		{"AllReduceScalar", func(m *comm.Machine, res []float64) {
			m.MustRun(func(pe *comm.PE) { res[pe.Rank()] = AllReduceScalar(pe, val(pe), addF64) })
		}},
	}
	exScan := []scalarForm{
		{"ExScanSumStep", func(m *comm.Machine, res []float64) {
			m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
				return ExScanSumStep(pe, val(pe), func(v float64) { res[pe.Rank()] = v })
			})
		}},
		{"ExScanSum", func(m *comm.Machine, res []float64) {
			m.MustRun(func(pe *comm.PE) { res[pe.Rank()] = ExScanSum(pe, val(pe)) })
		}},
		{"exScanStep", func(m *comm.Machine, res []float64) {
			m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
				return newExScanStep(pe, []float64{val(pe)}, addF64, func(v []float64) { res[pe.Rank()] = v[0] })
			})
		}},
	}
	// The non-powers of two exercise the all-reduce's fold-in and fold-out.
	for _, p := range []int{1, 2, 3, 5, 6, 8, 16, 64} {
		for _, forms := range [][]scalarForm{allReduce, exScan} {
			t.Run(fmt.Sprintf("p=%d/%s", p, forms[0].name), func(t *testing.T) {
				run := func(f scalarForm) ([]float64, comm.Stats) {
					m := comm.NewMachine(comm.DefaultConfig(p))
					defer m.Close()
					res := make([]float64, p)
					f.run(m, res)
					return res, m.Stats()
				}
				wantRes, wantStats := run(forms[0])
				for _, f := range forms[1:] {
					res, stats := run(f)
					if !slices.Equal(res, wantRes) {
						t.Errorf("%s = %v, %s = %v", f.name, res, forms[0].name, wantRes)
					}
					if stats != wantStats {
						t.Errorf("%s stats %+v, %s stats %+v", f.name, stats, forms[0].name, wantStats)
					}
				}
			})
		}
	}

	// An element as wide as the all-reduce engine's long-vector threshold
	// (4r words, r = 8 at p = 8) must not take the reduce-scatter path:
	// one element cannot be halved, so every PE sends ⌈log₂ p⌉ messages.
	t.Run("wide/p=8", func(t *testing.T) {
		const p = 8
		type wide [32]uint64
		if WordsOf[wide]() != 4*p {
			t.Fatalf("wide is %d words, want %d", WordsOf[wide](), 4*p)
		}
		addWide := func(a, b wide) wide {
			for i := range a {
				a[i] += b[i]
			}
			return a
		}
		of := func(pe *comm.PE) (w wide) {
			w[0], w[31] = uint64(pe.Rank()), 1
			return w
		}
		check := func(name string, m *comm.Machine, res []wide) {
			for r, w := range res {
				if w[0] != p*(p-1)/2 || w[31] != p {
					t.Errorf("%s rank %d: got (%d, %d), want (%d, %d)", name, r, w[0], w[31], p*(p-1)/2, p)
				}
			}
			if got, want := m.Stats().MaxSends, int64(bits.Len(p-1)); got != want {
				t.Errorf("%s: %d messages per PE, want ⌈log₂ %d⌉ = %d", name, got, p, want)
			}
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		defer m.Close()
		res := make([]wide, p)
		m.MustRun(func(pe *comm.PE) { res[pe.Rank()] = AllReduceScalar(pe, of(pe), addWide) })
		check("AllReduceScalar", m, res)
		m.ResetStats()
		m.MustRunAsync(func(pe *comm.PE) comm.Stepper {
			return AllReduceScalarStep(pe, of(pe), addWide, func(w wide) { res[pe.Rank()] = w })
		})
		check("AllReduceScalarStep", m, res)
	})
}

func TestAllToAllReceivedPartsAreOwned(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		runOn(t, p, func(pe *comm.PE) {
			rank := pe.Rank()
			parts := make([][]int, p)
			for d := range parts {
				parts[d] = []int{rank, d}
			}
			out := AllToAll(pe, parts)
			if &out[rank][0] != &parts[rank][0] {
				t.Errorf("p=%d rank=%d: self part was copied; must stay aliased", p, rank)
			}
			for src, part := range out {
				if !slices.Equal(part, []int{src, rank}) {
					t.Errorf("p=%d rank=%d: part from %d = %v", p, rank, src, part)
				}
				if src != rank {
					part[0], part[1] = -1, -1
				}
			}
			// Every PE has scribbled over what it received; no sender's
			// slice may show it.
			Barrier(pe)
			for d, part := range parts {
				if !slices.Equal(part, []int{rank, d}) {
					t.Errorf("p=%d rank=%d: parts[%d] = %v after the receivers wrote theirs", p, rank, d, part)
				}
			}
		})
	}
}
