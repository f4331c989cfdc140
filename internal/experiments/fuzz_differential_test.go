package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"commtopk/internal/agg"
	"commtopk/internal/bnb"
	"commtopk/internal/bpq"
	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/gen"
	"commtopk/internal/mtopk"
	"commtopk/internal/redist"
	"commtopk/internal/sel"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// Randomized differential fuzz over the stepper forms: random sequences
// of collectives with random payload shapes run three ways (a sequence
// with a blocking-only op runs as blocking bodies on both executors) —
//
//	reference executor, continuation bodies   (simexec: one goroutine, seeded order)
//	production, blocking bodies               (a coroutine per PE)
//	production, continuation bodies           (RunAsync over the pooled steppers)
//
// at several scheduler widths, and every PE's results plus the machine's
// metered statistics must be bit-identical across all of them. The fixed
// differential suite (differential_test.go) pins known shapes; the fuzz
// walks the composition space — mixed op orders, ragged payloads, chunk
// sizes, p ∈ {4, 16, 64}, w ∈ {1, 4, GOMAXPROCS·8} — where stale pooled
// stepper state, tag desynchronization, or meter divergence between the
// three execution modes would surface.

// fuzzOp is one fuzzable collective: block runs the blocking form and
// returns a comparable result; step, where the op has a stepper form,
// returns it delivering the same result through *out (nil for the
// families that are blocking code only). prm carries the op's randomized
// parameters, derived deterministically from the sequence seed so all
// machines run identical programs.
type fuzzOp struct {
	name  string
	block func(pe *comm.PE, prm int64) any
	step  func(pe *comm.PE, prm int64, out *any) comm.Stepper
}

// fuzzPayload builds a deterministic ragged payload for rank: length
// depends on (prm, rank) and can be zero.
func fuzzPayload(pe *comm.PE, prm int64) []int64 {
	n := int((prm + int64(pe.Rank())) % 5)
	data := make([]int64, n)
	for i := range data {
		data[i] = prm + int64(pe.Rank()*31+i)
	}
	return data
}

// routed is a router item: its destination rank and a payload.
type routed struct {
	Dest    int
	Payload int64
}

func fuzzRouteItems(pe *comm.PE, prm int64) []routed {
	p := pe.P()
	n := int(prm%3) + p
	items := make([]routed, n)
	for i := range items {
		items[i] = routed{
			Dest:    int((prm + int64(pe.Rank()*7+i*13)) % int64(p)),
			Payload: prm + int64(pe.Rank()*1000+i),
		}
	}
	return items
}

// routedDest is the router's dest function for routed items.
func routedDest(it routed) int { return it.Dest }

// routeOp routes the prm-dependent items and folds what arrives into one
// order-independent sum.
func routeOp(pe *comm.PE, prm int64) any {
	var sum int64
	coll.RouteCombine(pe, fuzzRouteItems(pe, prm), routedDest, nil, func(got []routed) {
		for _, it := range got {
			sum += it.Payload * int64(it.Dest+1)
		}
	})
	return sum
}

// nested is the stepper leg of a collective that is blocking code only:
// its blocking form as a nested body (comm.BodyStep), the way serve runs
// blocking code inside a stepper.
func nested(block func(pe *comm.PE, prm int64) any) func(pe *comm.PE, prm int64, out *any) comm.Stepper {
	return func(pe *comm.PE, prm int64, out *any) comm.Stepper {
		return comm.BodyStep(pe, func(pe *comm.PE) { *out = block(pe, prm) })
	}
}

// fuzzBpqKeys builds count globally unique ascending keys for this rank
// in the batch namespace base (namespaces far enough apart that refill
// batches never collide with the initial fill).
func fuzzBpqKeys(pe *comm.PE, base, count int) []uint64 {
	keys := make([]uint64, count)
	for i := range keys {
		keys[i] = uint64((base+i)*pe.P() + pe.Rank())
	}
	return keys
}

// fuzzMtopkData builds a deterministic per-rank multicriteria instance:
// object count, criteria count and the global k all vary with prm; IDs
// are globally unique by rank-disjoint offsets.
func fuzzMtopkData(pe *comm.PE, prm int64) (*mtopk.Data, int) {
	n := 8 + int(prm%8)
	m := 2 + int(prm%3)
	objs := mtopk.GenObjects(xrand.NewPE(prm, pe.Rank()), n, m, 1+uint64(pe.Rank())*64)
	return mtopk.NewData(objs, m), 1 + int(prm%8)
}

// fuzzFreqStream builds a deterministic skewed per-rank key stream
// (small keys dominate) plus randomized heavy-hitter parameters.
func fuzzFreqStream(pe *comm.PE, prm int64) ([]uint64, freq.Params) {
	rng := xrand.NewPE(prm, pe.Rank())
	uni := uint64(8 + prm%24)
	local := make([]uint64, 48+int(prm%32))
	for i := range local {
		u := rng.Uint64() % uni
		local[i] = rng.Uint64() % (u + 1)
	}
	return local, freq.Params{K: 1 + int(prm%6), Eps: 0.05, Delta: 0.01}
}

// fuzzAggInput builds a deterministic skewed per-rank (key, value) stream
// plus randomized top-sum parameters.
func fuzzAggInput(pe *comm.PE, prm int64) ([]uint64, []float64, agg.Params) {
	keys, _ := fuzzFreqStream(pe, prm)
	rng := xrand.NewPE(prm+1, pe.Rank())
	vals := make([]float64, len(keys))
	for i := range vals {
		vals[i] = float64(1 + rng.Intn(9))
	}
	return keys, vals, agg.Params{K: 1 + int(prm%5), Eps: 0.05, Delta: 0.01}
}

// fuzzSortedSeq builds this rank's share of a locally sorted, globally
// unique key set: the strided keys {i·p + rank}.
func fuzzSortedSeq(pe *comm.PE, perPE int) []uint64 {
	s := make([]uint64, perPE)
	for i := range s {
		s[i] = uint64(i*pe.P() + pe.Rank())
	}
	return s
}

// fuzzSkewedLoad builds a rank-dependent number of tagged objects for the
// load balancer: the last ranks hold most of them.
func fuzzSkewedLoad(pe *comm.PE, prm int64) []uint64 {
	local := make([]uint64, (pe.Rank()*int(3+prm%11))%29)
	for i := range local {
		local[i] = uint64(pe.Rank())<<32 | uint64(i)
	}
	return local
}

// fuzzBpqResult is the BpqChurn op's per-PE observable: every batch key
// this PE received, the flexible batch's realized size, and the final
// peek/length collective results.
type fuzzBpqResult struct {
	batches []uint64
	n2      int64
	min     uint64
	ok      bool
	total   int64
}

func flattenParts(parts [][]int64) []int64 {
	flat := []int64{}
	for src, part := range parts {
		flat = append(flat, int64(src))
		flat = append(flat, part...)
	}
	return flat
}

// reduceConcatOp is the selection up-sweep on a prm-dependent root: a
// two-counter header summed, variable-length blocks concatenated.
func reduceConcatOp(pe *comm.PE, prm int64, out *any) comm.Stepper {
	b := fuzzPayload(pe, prm)
	return coll.ReduceConcatStep(pe, int(prm)%pe.P(), []int64{int64(len(b)), prm}, b,
		func(sums, all []int64) { *out = append(slices.Clone(sums), all...) })
}

func broadcastOp(pe *comm.PE, prm int64) any {
	var data []int64
	if pe.Rank() == 0 {
		data = []int64{prm, prm * 3, 42}
	}
	return slices.Clone(coll.Broadcast(pe, 0, data))
}

func exScanOp(pe *comm.PE, prm int64) any {
	return coll.ExScanSum(pe, prm+int64(pe.Rank()*3))
}

func allGatherConcatOp(pe *comm.PE, prm int64) any {
	return coll.AllGatherConcat(pe, fuzzPayload(pe, prm))
}

func allToAllOp(pe *comm.PE, prm int64) any {
	parts := make([][]int64, pe.P())
	for d := range parts {
		parts[d] = []int64{prm + int64(pe.Rank()*100+d), int64(d)}
	}
	return flattenParts(coll.AllToAll(pe, parts))
}

func fuzzOps() []fuzzOp {
	return []fuzzOp{
		{
			name:  "Broadcast",
			block: broadcastOp,
			step:  nested(broadcastOp),
		},
		{
			name: "AllReduceScalar",
			block: func(pe *comm.PE, prm int64) any {
				return coll.AllReduceScalar(pe, prm+int64(pe.Rank()), func(a, b int64) int64 { return a + b })
			},
			step: func(pe *comm.PE, prm int64, out *any) comm.Stepper {
				return coll.AllReduceScalarStep(pe, prm+int64(pe.Rank()),
					func(a, b int64) int64 { return a + b }, func(v int64) { *out = v })
			},
		},
		{
			name:  "ExScanSum",
			block: exScanOp,
			step:  nested(exScanOp),
		},
		{
			name: "AllReduceVec",
			block: func(pe *comm.PE, prm int64) any {
				// Length toggles between the recursive-doubling and the
				// Rabenseifner regime with prm.
				n := 3 + int(prm%2)*(4*pe.P())
				x := make([]int64, n)
				for i := range x {
					x[i] = prm + int64(pe.Rank()*n+i)
				}
				return coll.AllReduce(pe, x, func(a, b int64) int64 { return a + b })
			},
			step: func(pe *comm.PE, prm int64, out *any) comm.Stepper {
				n := 3 + int(prm%2)*(4*pe.P())
				x := make([]int64, n)
				for i := range x {
					x[i] = prm + int64(pe.Rank()*n+i)
				}
				return coll.AllReduceIntoStep(pe, nil, x, func(a, b int64) int64 { return a + b },
					func(v []int64) {
						o := make([]int64, len(v))
						copy(o, v)
						*out = o
					})
			},
		},
		{
			// No blocking form of its own: the blocking leg drives the stepper.
			name: "ReduceConcat",
			block: func(pe *comm.PE, prm int64) any {
				var res any
				comm.RunSteps(pe, reduceConcatOp(pe, prm, &res))
				return res
			},
			step: reduceConcatOp,
		},
		{
			name: "BroadcastScalar",
			block: func(pe *comm.PE, prm int64) any {
				return coll.BroadcastScalar(pe, int(prm)%pe.P(), prm+int64(pe.Rank()))
			},
			step: func(pe *comm.PE, prm int64, out *any) comm.Stepper {
				return coll.BroadcastScalarStep(pe, int(prm)%pe.P(), prm+int64(pe.Rank()),
					func(v int64) { *out = v })
			},
		},
		{
			name: "AllGatherv",
			block: func(pe *comm.PE, prm int64) any {
				return flattenParts(coll.AllGatherv(pe, fuzzPayload(pe, prm)))
			},
		},
		{
			name:  "AllGatherConcat",
			block: allGatherConcatOp,
			step:  nested(allGatherConcatOp),
		},
		{
			name:  "AllToAll",
			block: allToAllOp,
			step:  nested(allToAllOp),
		},
		{
			name:  "RouteCombine",
			block: routeOp,
			step:  nested(routeOp),
		},
		{
			name: "BpqChurn",
			block: func(pe *comm.PE, prm int64) any {
				p := int64(pe.P())
				q := bpq.New[uint64](pe, prm)
				q.InsertBulk(fuzzBpqKeys(pe, 0, 16+int(prm%16)))
				var res fuzzBpqResult
				res.batches = append(res.batches, q.DeleteMin(1+prm%(24*p))...)
				q.InsertBulk(fuzzBpqKeys(pe, 1000, 8))
				kmin := 1 + prm%5
				b2, n := q.DeleteMinFlexible(kmin, kmin+prm%(4*p))
				res.batches = append(res.batches, b2...)
				res.n2 = n
				res.min, res.ok = q.PeekMin()
				res.total = q.GlobalLen()
				return res
			},
		},
		{
			name: "MtopkDTA",
			block: func(pe *comm.PE, prm int64) any {
				d, k := fuzzMtopkData(pe, prm)
				return mtopk.DTA(pe, d, mtopk.SumScore, k, xrand.NewPE(prm+11, pe.Rank()))
			},
		},
		{
			name: "FreqPAC",
			block: func(pe *comm.PE, prm int64) any {
				local, pr := fuzzFreqStream(pe, prm)
				return freq.PAC(pe, local, pr, xrand.NewPE(prm+13, pe.Rank()))
			},
			// The form serve's TopKFreq runs: the blocking PAC as a nested
			// body.
			step: func(pe *comm.PE, prm int64, out *any) comm.Stepper {
				return comm.BodyStep(pe, func(pe *comm.PE) {
					local, pr := fuzzFreqStream(pe, prm)
					*out = freq.PAC(pe, local, pr, xrand.NewPE(prm+13, pe.Rank()))
				})
			},
		},
		{
			name: "MtopkRDTA",
			block: func(pe *comm.PE, prm int64) any {
				d, k := fuzzMtopkData(pe, prm)
				return mtopk.RDTA(pe, d, mtopk.SumScore, k, xrand.NewPE(prm+17, pe.Rank()))
			},
		},
		{
			name: "FreqEC",
			block: func(pe *comm.PE, prm int64) any {
				local, pr := fuzzFreqStream(pe, prm)
				return freq.EC(pe, local, pr, xrand.NewPE(prm+19, pe.Rank()))
			},
		},
		{
			name: "AggPAC",
			block: func(pe *comm.PE, prm int64) any {
				keys, vals, pr := fuzzAggInput(pe, prm)
				return agg.PAC(pe, keys, vals, pr, xrand.NewPE(prm+23, pe.Rank()))
			},
		},
		{
			name: "AggECSum",
			block: func(pe *comm.PE, prm int64) any {
				keys, vals, pr := fuzzAggInput(pe, prm)
				return agg.ECSum(pe, keys, vals, pr, xrand.NewPE(prm+29, pe.Rank()))
			},
		},
		{
			name: "RedistBalance",
			block: func(pe *comm.PE, prm int64) any {
				return slices.Clone(redist.Balance(pe, fuzzSkewedLoad(pe, prm)))
			},
		},
		{
			name: "BnbSolve",
			block: func(pe *comm.PE, prm int64) any {
				return bnb.Solve[bnb.KNode](pe, bnb.RandomKnapsack(prm, 10, 40), prm)
			},
		},
		{
			name: "SelMSSelect",
			block: func(pe *comm.PE, prm int64) any {
				const perPE = 32
				v, le := sel.MSSelect[uint64](pe, sel.SliceSeq[uint64](fuzzSortedSeq(pe, perPE)),
					1+prm%int64(pe.P()*perPE), xrand.New(prm+31))
				return [2]uint64{v, uint64(le)}
			},
		},
		{
			name: "SelKthSorted",
			block: func(pe *comm.PE, prm int64) any {
				const perPE = 48
				n := int64(pe.P() * perPE)
				var got uint64
				comm.RunSteps(pe, sel.KthSortedStep(pe, fuzzSortedSeq(pe, perPE), n, 1+prm%n,
					xrand.NewPE(prm+37, pe.Rank()), func(v uint64) { got = v }))
				return got
			},
			step: func(pe *comm.PE, prm int64, out *any) comm.Stepper {
				const perPE = 48
				n := int64(pe.P() * perPE)
				return sel.KthSortedStep(pe, fuzzSortedSeq(pe, perPE), n, 1+prm%n,
					xrand.NewPE(prm+37, pe.Rank()), func(v uint64) { *out = v })
			},
		},
		{
			name: "SelKth",
			block: func(pe *comm.PE, prm int64) any {
				local := gen.SelectionInput(xrand.NewPE(prm, pe.Rank()), 64, 10)
				n := int64(pe.P() * 64)
				k := 1 + prm%n
				return sel.Kth(pe, local, k, xrand.NewPE(prm+7, pe.Rank()))
			},
			step: func(pe *comm.PE, prm int64, out *any) comm.Stepper {
				local := gen.SelectionInput(xrand.NewPE(prm, pe.Rank()), 64, 10)
				n := int64(pe.P() * 64)
				k := 1 + prm%n
				return sel.KthStep(pe, local, k, xrand.NewPE(prm+7, pe.Rank()),
					func(v uint64) { *out = v })
			},
		},
		{
			name: "MtopkTopK",
			block: func(pe *comm.PE, prm int64) any {
				d, k := fuzzMtopkData(pe, prm)
				hits, dta := mtopk.TopK(pe, d, mtopk.SumScore, k, xrand.NewPE(prm+41, pe.Rank()))
				return [2]any{hits, dta}
			},
		},
	}
}

// fuzzSeq is one randomized program: an op sequence with per-op params.
type fuzzSeq struct {
	ops  []int
	prms []int64
}

func makeFuzzSeq(rng *xrand.RNG, nOps int) fuzzSeq {
	var fs fuzzSeq
	catalog := fuzzOps()
	for i := 0; i < nOps; i++ {
		fs.ops = append(fs.ops, int(rng.Intn(len(catalog))))
		fs.prms = append(fs.prms, 1+int64(rng.Intn(1000)))
	}
	return fs
}

// stepperForm reports whether every op of fs has a stepper form. A
// sequence with a blocking-only op runs as blocking bodies everywhere.
func (fs fuzzSeq) stepperForm() bool {
	catalog := fuzzOps()
	for _, oi := range fs.ops {
		if catalog[oi].step == nil {
			return false
		}
	}
	return true
}

// runFuzzReference runs fs on the reference executor: as continuation
// bodies where it can, as blocking bodies otherwise.
func runFuzzReference(p int, fs fuzzSeq) ([][]any, comm.Stats) {
	if fs.stepperForm() {
		return runFuzzStepper(simexec.Reference(p), fs)
	}
	return runFuzzBlocking(simexec.Reference(p), fs)
}

// newFuzzResults allocates the per-op, per-rank result slots of one run.
func newFuzzResults(fs fuzzSeq, p int) [][]any {
	results := make([][]any, len(fs.ops))
	for i := range results {
		results[i] = make([]any, p)
	}
	return results
}

// runFuzzBlocking executes the sequence on m with blocking bodies and
// closes m: one Run, ops called back to back inside it (cross-op state —
// tags, pools and the buffers in them — is part of what the fuzz exercises).
func runFuzzBlocking(m *comm.Machine, fs fuzzSeq) ([][]any, comm.Stats) {
	defer m.Close()
	results := newFuzzResults(fs, m.P())
	m.MustRun(fuzzBlockingBody(fs, results))
	return results, m.Stats()
}

// fuzzBlockingBody is the sequence as one blocking body per PE.
func fuzzBlockingBody(fs fuzzSeq, results [][]any) func(pe *comm.PE) {
	catalog := fuzzOps()
	return func(pe *comm.PE) {
		for i, oi := range fs.ops {
			results[i][pe.Rank()] = catalog[oi].block(pe, fs.prms[i])
		}
	}
}

// fuzzBody is the same sequence as one continuation body per PE: the
// steppers are chained lazily (each constructed when the previous
// completes, like real multi-phase bodies whose later stages depend on
// earlier results).
func fuzzBody(fs fuzzSeq, results [][]any) func(pe *comm.PE) comm.Stepper {
	catalog := fuzzOps()
	return func(pe *comm.PE) comm.Stepper {
		i := 0
		var cur comm.Stepper
		return comm.StepFunc(func(pe *comm.PE) *comm.RecvHandle {
			for i < len(fs.ops) {
				if cur == nil {
					cur = catalog[fs.ops[i]].step(pe, fs.prms[i], &results[i][pe.Rank()])
				}
				if h := cur.Step(pe); h != nil {
					return h
				}
				cur = nil
				i++
			}
			return nil
		})
	}
}

// runFuzzStepper executes fuzzBody on m under RunAsync and closes m.
func runFuzzStepper(m *comm.Machine, fs fuzzSeq) ([][]any, comm.Stats) {
	defer m.Close()
	results := newFuzzResults(fs, m.P())
	m.MustRunAsync(fuzzBody(fs, results))
	return results, m.Stats()
}

func fuzzIters() int {
	if testing.Short() {
		return 4
	}
	return 12
}

// TestFuzzDifferentialSteppers is the randomized three-way differential:
// for every random sequence, production blocking and stepper runs must
// match the reference executor exactly — per-PE results and metered
// stats. A sequence with a blocking-only op has no stepper runs; its
// reference runs blocking bodies. Widths cover the degenerate single shard, the multiplexed
// regime, and the default.
func TestFuzzDifferentialSteppers(t *testing.T) {
	widths := []int{1, 4, runtime.GOMAXPROCS(0) * 8}
	for _, p := range []int{4, 16, 64} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			seqRng := xrand.New(int64(9000 + p))
			catalog := fuzzOps()
			for it := 0; it < fuzzIters(); it++ {
				fs := makeFuzzSeq(seqRng, 3+int(seqRng.Intn(4)))
				refRes, refStats := runFuzzReference(p, fs)
				opNames := func(i int) string { return catalog[fs.ops[i]].name }
				modes := []string{"blocking"}
				if fs.stepperForm() {
					modes = append(modes, "stepper")
				}
				for _, w := range widths {
					cfg := comm.DefaultConfig(p)
					cfg.Workers = w
					for _, mode := range modes {
						var res [][]any
						var stats comm.Stats
						if mode == "blocking" {
							res, stats = runFuzzBlocking(comm.NewMachine(cfg), fs)
						} else {
							res, stats = runFuzzStepper(comm.NewMachine(cfg), fs)
						}
						for i := range res {
							if !reflect.DeepEqual(refRes[i], res[i]) {
								t.Fatalf("iter %d w=%d %s: op %d (%s) diverges from the reference\nref: %v\ngot: %v",
									it, w, mode, i, opNames(i), refRes[i], res[i])
							}
						}
						if stats != refStats {
							t.Fatalf("iter %d w=%d %s: stats diverge\nref: %+v\ngot: %+v",
								it, w, mode, refStats, stats)
						}
					}
				}
			}
		})
	}
}
