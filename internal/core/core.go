// Package core is the high-level façade of the library: it wires a
// simulated cluster (internal/comm) to the paper's algorithm packages and
// offers one-call APIs for the common queries — the entry point the
// examples and command-line tools use.
//
// For full control (custom SPMD programs, combining algorithms,
// inspecting communication statistics mid-run) use Cluster.Run with the
// algorithm packages directly; every algorithm is an ordinary function
// over a *comm.PE.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"commtopk/internal/agg"
	"commtopk/internal/comm"
	"commtopk/internal/freq"
	"commtopk/internal/mtopk"
	"commtopk/internal/redist"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// Cluster is a simulated distributed machine plus the bookkeeping the
// high-level APIs need.
type Cluster struct {
	m    *comm.Machine
	seed int64
}

// Option adjusts the cluster configuration.
type Option func(*comm.Config)

// WithCosts sets the modeled per-message startup cost α and per-word
// transfer cost β used by the virtual communication clock.
func WithCosts(alpha, beta float64) Option {
	return func(c *comm.Config) { c.Alpha, c.Beta = alpha, beta }
}

// WithSeed seeds all deterministic random streams.
func WithSeed(seed int64) Option {
	return func(c *comm.Config) { c.Seed = seed }
}

// New creates a cluster of p processing elements.
func New(p int, opts ...Option) *Cluster {
	cfg := comm.DefaultConfig(p)
	for _, o := range opts {
		o(&cfg)
	}
	return &Cluster{m: comm.NewMachine(cfg), seed: cfg.Seed}
}

// P returns the number of PEs.
func (c *Cluster) P() int { return c.m.P() }

// Run executes an SPMD body on all PEs (see comm.Machine.Run).
func (c *Cluster) Run(body func(pe *comm.PE)) error { return c.m.Run(body) }

// MustRun is Run but panics on error.
func (c *Cluster) MustRun(body func(pe *comm.PE)) { c.m.MustRun(body) }

// Stats returns aggregate communication statistics of the last run(s).
func (c *Cluster) Stats() comm.Stats { return c.m.Stats() }

// ResetStats zeroes the communication statistics.
func (c *Cluster) ResetStats() { c.m.ResetStats() }

// Split partitions a global slice into p contiguous, near-even parts —
// the standard way to feed a single dataset to the cluster APIs.
func Split[T any](global []T, p int) [][]T {
	parts := make([][]T, p)
	for i := 0; i < p; i++ {
		lo := len(global) * i / p
		hi := len(global) * (i + 1) / p
		parts[i] = global[lo:hi]
	}
	return parts
}

func (c *Cluster) checkParts(got int) {
	if got != c.P() {
		panic(fmt.Sprintf("core: %d per-PE inputs for a %d-PE cluster", got, c.P()))
	}
}

// TopKSmallest returns the k globally smallest elements (unsorted
// selection, Section 4.1), gathered in ascending order.
func (c *Cluster) TopKSmallest(locals [][]uint64, k int64) ([]uint64, error) {
	c.checkParts(len(locals))
	shares := make([][]uint64, c.P())
	err := c.Run(func(pe *comm.PE) {
		rng := xrand.NewPE(c.seed, pe.Rank())
		shares[pe.Rank()] = sel.SmallestK(pe, locals[pe.Rank()], k, rng)
	})
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, s := range shares {
		out = append(out, s...)
	}
	sortUint64(out)
	return out, nil
}

// TopKFrequent returns the k most frequent objects using the given
// algorithm ("pac", "ec", "ecsbf", "naive", "naivetree").
func (c *Cluster) TopKFrequent(locals [][]uint64, params freq.Params, algorithm string) (freq.Result, error) {
	c.checkParts(len(locals))
	var res freq.Result
	err := c.Run(func(pe *comm.PE) {
		rng := xrand.NewPE(c.seed+1, pe.Rank())
		var r freq.Result
		switch algorithm {
		case "pac":
			r = freq.PAC(pe, locals[pe.Rank()], params, rng)
		case "ec":
			r = freq.EC(pe, locals[pe.Rank()], params, rng)
		case "ecsbf":
			r = freq.ECSBF(pe, locals[pe.Rank()], params, rng)
		case "naive":
			r = freq.Naive(pe, locals[pe.Rank()], params, rng)
		case "naivetree":
			r = freq.NaiveTree(pe, locals[pe.Rank()], params, rng)
		default:
			panic(fmt.Sprintf("core: unknown frequent-objects algorithm %q", algorithm))
		}
		if pe.Rank() == 0 {
			res = r
		}
	})
	return res, err
}

// TopKSums returns the k keys with the largest value sums (Section 8);
// exact selects the exact-summation variant.
func (c *Cluster) TopKSums(keys [][]uint64, values [][]float64, params agg.Params, exact bool) (agg.Result, error) {
	c.checkParts(len(keys))
	c.checkParts(len(values))
	var res agg.Result
	err := c.Run(func(pe *comm.PE) {
		rng := xrand.NewPE(c.seed+2, pe.Rank())
		var r agg.Result
		if exact {
			r = agg.ECSum(pe, keys[pe.Rank()], values[pe.Rank()], params, rng)
		} else {
			r = agg.PAC(pe, keys[pe.Rank()], values[pe.Rank()], params, rng)
		}
		if pe.Rank() == 0 {
			res = r
		}
	})
	return res, err
}

// TopKMulticriteria returns the k most relevant objects under the
// monotone scoring function t (Section 6, algorithm DTA), best first.
func (c *Cluster) TopKMulticriteria(objects [][]mtopk.Object, m int, t mtopk.ScoreFunc, k int) ([]mtopk.Hit, error) {
	c.checkParts(len(objects))
	shares := make([][]mtopk.Hit, c.P())
	err := c.Run(func(pe *comm.PE) {
		d := mtopk.NewData(objects[pe.Rank()], m)
		rng := xrand.NewPE(c.seed+3, pe.Rank())
		share, _ := mtopk.TopK(pe, d, t, k, rng)
		shares[pe.Rank()] = share
	})
	if err != nil {
		return nil, err
	}
	var out []mtopk.Hit
	for _, s := range shares {
		out = append(out, s...)
	}
	sortHitsDesc(out)
	return out, nil
}

// BalanceLoad redistributes per-PE slices so every PE holds at most
// ⌈n/p⌉ objects, moving only surplus data (Section 9).
func (c *Cluster) BalanceLoad(locals [][]uint64) ([][]uint64, error) {
	c.checkParts(len(locals))
	out := make([][]uint64, c.P())
	err := c.Run(func(pe *comm.PE) {
		out[pe.Rank()] = redist.Balance(pe, locals[pe.Rank()])
	})
	return out, err
}

func sortUint64(s []uint64) { slices.Sort(s) }

// sortHitsDesc orders hits by score descending, then id ascending: a
// total order, since object ids are globally unique.
func sortHitsDesc(hits []mtopk.Hit) {
	slices.SortFunc(hits, func(a, b mtopk.Hit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
