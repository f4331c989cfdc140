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

// MSSelect and AMSSelect must be bit-identical — per-PE results and
// metered statistics — on the mailbox scheduler (including w < p) and on
// the reference executor, whose single goroutine carries every message.
// (The test names are kept from when the production leg ran the
// selections' state machines under RunAsync.)
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
					m.MustRun(func(pe *comm.PE) {
						r := pe.Rank()
						gotV[r], gotN[r] = MSSelect[uint64](pe, msTestSeq(p, r, perPE), k, xrand.New(33))
					})
					for r := 0; r < p; r++ {
						if gotV[r] != refV[r] || gotN[r] != refN[r] {
							t.Errorf("k=%d w=%d rank %d: production (%d, %d) vs reference (%d, %d)",
								k, w, r, gotV[r], gotN[r], refV[r], refN[r])
						}
					}
					if s := m.Stats(); s != refStats {
						t.Errorf("k=%d w=%d: stats diverge:\n  reference:  %+v\n  production: %+v",
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
					m.MustRun(func(pe *comm.PE) {
						r := pe.Rank()
						got[r] = AMSSelect[uint64](pe, msTestSeq(p, r, perPE), kmin, kmax, xrand.NewPE(71, r))
					})
					for r := 0; r < p; r++ {
						if got[r] != ref[r] {
							t.Errorf("[%d,%d] w=%d rank %d: production %+v vs reference %+v",
								kmin, kmax, w, r, got[r], ref[r])
						}
					}
					if s := m.Stats(); s != refStats {
						t.Errorf("[%d,%d] w=%d: stats diverge:\n  reference:  %+v\n  production: %+v",
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
// Either way the mailbox scheduler and the reference executor must agree
// bit for bit, and the threshold is the oracle's.
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
			m.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				got[r] = AMSSelect[uint64](pe, in.seq(p, r, perPE), k, k, xrand.NewPE(5, r))
			})
			for r := 0; r < p; r++ {
				if got[r] != ref[r] {
					t.Errorf("%s rank %d: production %+v vs reference %+v", name, r, got[r], ref[r])
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
// every PE its exact local count — bit-identical results, per-PE sends of
// every selection and meters of the run on the mailbox scheduler at any
// width and on the seeded executor under every policy. The five
// selections of a shape run one after another in one blocking run per
// machine: under -race a run per selection grew the test binary by about
// 60 KB per coroutine it retired.
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
		ks := []int64{1, 2, total / 2, total - 1, total}
		for _, opaque := range []bool{false, true} {
			name := fmt.Sprintf("%s opaque=%v", shape.name, opaque)
			seq := func(r int) Seq[uint64] {
				if opaque {
					return opaqueSeq{parts[r]}
				}
				return SliceSeq[uint64](parts[r])
			}
			type outcome struct {
				vs    [][]uint64 // [k][rank]
				les   [][]int
				sends [][]int64
				stats comm.Stats
			}
			run := func(mode string, m *comm.Machine) outcome {
				o := outcome{}
				for range ks {
					o.vs = append(o.vs, make([]uint64, p))
					o.les = append(o.les, make([]int, p))
					o.sends = append(o.sends, make([]int64, p))
				}
				m.MustRun(func(pe *comm.PE) {
					r := pe.Rank()
					for i, k := range ks {
						before := pe.Sends()
						o.vs[i][r], o.les[i][r] = MSSelect(pe, seq(r), k, xrand.New(7))
						o.sends[i][r] = pe.Sends() - before
					}
				})
				o.stats = m.Stats()
				m.Close()
				for i, k := range ks {
					var sum int64
					for r, v := range o.vs[i] {
						if v != union[k-1] {
							t.Fatalf("%s k=%d %s: rank %d got %d, want %d", name, k, mode, r, v, union[k-1])
						}
						if want := SliceSeq[uint64](parts[r]).CountLE(v); o.les[i][r] != want {
							t.Errorf("%s k=%d %s: rank %d local count %d, want %d", name, k, mode, r, o.les[i][r], want)
						}
						sum += int64(o.les[i][r])
					}
					if sum != k {
						t.Errorf("%s k=%d %s: local counts sum to %d", name, k, mode, sum)
					}
				}
				return o
			}
			want := run("production", comm.NewMachine(comm.DefaultConfig(p)))
			again := func(mode string, m *comm.Machine) {
				got := run(mode, m)
				for i, k := range ks {
					if !slices.Equal(got.sends[i], want.sends[i]) {
						t.Errorf("%s k=%d %s: sends per PE %v, first run %v", name, k, mode, got.sends[i], want.sends[i])
					}
				}
				if got.stats != want.stats {
					t.Errorf("%s %s: stats %+v, first run %+v", name, mode, got.stats, want.stats)
				}
			}
			cfg := comm.DefaultConfig(p)
			cfg.Workers = 3
			again("w=3", comm.NewMachine(cfg))
			for _, pol := range simexec.Policies {
				m, _ := simexec.New(comm.DefaultConfig(p), total, pol)
				again("simexec/"+pol.String(), m)
			}
		}
	}
}
