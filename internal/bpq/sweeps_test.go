package bpq

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/sel"
	"commtopk/internal/simexec"
	"commtopk/internal/xrand"
)

// TestDeleteMinIsTreeSweepsOnly: an exact DeleteMin(k ≥ 2) is one 2-word
// size all-reduce — a butterfly, log₂ p messages of 2 words from every PE —
// and then exactly sel.KthSortedStep on the first min(k, len) keys of
// every queue with the queue's selection stream: per PE the same
// messages, plus log₂ p. That selection is tree sweeps only (a leaf sends one message
// per level, the root log₂ p); no ExScanSum, owner broadcast or second
// size sum fits in the count. DeleteMin(1) is the two butterflies of the
// size sum and Algorithm 1's min-reduction base case.
func TestDeleteMinIsTreeSweepsOnly(t *testing.T) {
	const perPE, seed = 64, 31
	for _, p := range []int{4, 16, 64} {
		logp := int64(bits.Len(uint(p)) - 1)
		keys := func(r int) []uint64 { // ascending, globally unique
			ks := make([]uint64, perPE)
			for i := range ks {
				ks[i] = uint64(i*p + r)
			}
			return ks
		}
		m := comm.NewMachine(comm.DefaultConfig(p))
		for _, k := range []int64{1, 2, 5, int64(p * perPE / 3), int64(p*perPE - 1)} {
			name := fmt.Sprintf("p=%d k=%d", p, k)
			qs := make([]*Queue[uint64], p)
			m.MustRun(func(pe *comm.PE) {
				qs[pe.Rank()] = New[uint64](pe, seed)
				qs[pe.Rank()].InsertBulk(keys(pe.Rank()))
			})
			// A fresh queue reseeds its selection stream from the first
			// draw of its own stream.
			nPrime := int64(p) * min(k, perPE)
			twin := make([]int64, p)
			answer := make([]uint64, p)
			m.ResetStats()
			m.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				before := pe.Sends()
				rng := xrand.NewPE(int64(xrand.NewPE(seed, r).Uint64()), r)
				comm.RunSteps(pe, sel.KthSortedStep(pe, keys(r)[:min(k, perPE)], nPrime, k, rng,
					func(v uint64) { answer[r] = v }))
				twin[r] = pe.Sends() - before
			})
			twinStats := m.Stats()
			got := make([]int64, p)
			shares := make([]int, p)
			m.ResetStats()
			m.MustRun(func(pe *comm.PE) {
				r := pe.Rank()
				before := pe.Sends()
				batch := qs[r].DeleteMin(k)
				got[r] = pe.Sends() - before
				shares[r] = len(batch)
				if mine := keys(r); !slices.Equal(batch, mine[:sel.SliceSeq[uint64](mine).CountLE(uint64(k-1))]) {
					t.Errorf("%s: rank %d removed %v, want its keys ≤ %d", name, r, batch, k-1)
				}
			})
			stats := m.Stats()
			removed := 0
			for r := range shares {
				removed += shares[r]
				if answer[r] != uint64(k-1) {
					t.Fatalf("%s: rank %d selected %d, want %d", name, r, answer[r], k-1)
				}
			}
			if int64(removed) != k {
				t.Fatalf("%s: removed %d keys", name, removed)
			}
			for r := range got {
				if got[r] != twin[r]+logp {
					t.Errorf("%s: rank %d sent %d, KthSortedStep on the prefixes %d + log₂p", name, r, got[r], twin[r])
				}
			}
			if want := twinStats.TotalWords + 2*int64(p)*logp; stats.TotalWords != want {
				t.Errorf("%s: %d words, want the selection's %d + a 2-word butterfly", name, stats.TotalWords, twinStats.TotalWords)
			}
			if k == 1 {
				if twinStats.TotalSends != int64(p)*logp {
					t.Errorf("%s: the base case sent %d, want one butterfly", name, twinStats.TotalSends)
				}
				continue
			}
			s := twin[1] // levels: a leaf sends one message per up-sweep
			for r := 1; r < p; r += 2 {
				if twin[r] != s {
					t.Errorf("%s: leaf %d sent %d, leaf 1 %d: not a tree", name, r, twin[r], s)
				}
			}
			if twin[0] != s*logp || twinStats.TotalSends != 2*s*int64(p-1) {
				t.Errorf("%s: root %d, total %d for %d levels: want levels·log₂p and 2·levels·(p−1)", name, twin[0], twinStats.TotalSends, s)
			}
		}
		m.Close()
	}
}

// dmCase is one delete against freshly filled queues.
type dmCase struct {
	name       string
	parts      [][]uint64 // ascending per PE
	kmin, kmax int64
	flex       bool
	ties       bool // the same keys on every PE (see the test)
}

// dmOutcome is everything one execution of a dmCase produces.
type dmOutcome struct {
	batches    [][]uint64
	thresholds []uint64
	ns         []int64
	left       int64
	stats      comm.Stats
}

func runDeleteCase(m *comm.Machine, c dmCase) dmOutcome {
	p := m.P()
	o := dmOutcome{batches: make([][]uint64, p), thresholds: make([]uint64, p), ns: make([]int64, p)}
	qs := make([]*Queue[uint64], p)
	m.MustRun(func(pe *comm.PE) {
		qs[pe.Rank()] = New[uint64](pe, 41)
		qs[pe.Rank()].InsertBulk(c.parts[pe.Rank()])
	})
	m.ResetStats()
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		o.batches[r], o.thresholds[r], o.ns[r] = qs[r].deleteMin(c.kmin, c.kmax, c.flex)
	})
	o.stats = m.Stats()
	m.MustRun(func(pe *comm.PE) {
		if n := qs[pe.Rank()].GlobalLen(); pe.Rank() == 0 {
			o.left = n
		}
	})
	return o
}

// TestDeleteMinEdgeCasesAgainstSortOracle: exact and flexible deletes at
// the edges of the prefix restriction — empty queues on some PEs, k above
// every local length, k = 1, total − 1, total and beyond (the drain), all
// keys on one PE, kmin = kmax — remove exactly the oracle's smallest keys,
// each PE its own keys up to the agreed threshold, and give bit-identical
// batches, thresholds, sizes and meters on a default production machine,
// on one squeezed to w < p, and on the seeded executor under every
// policy.
//
// kmin = kmax on unique keys converges in a few estimation rounds. The
// flexible search only fails — and hands the window, a subSeq over the
// treap, to the exact MSSelect engine, which copies its prefix — when no rank count can
// land in [k, k]: the "cross-PE ties" case holds the same keys on every
// PE, outside the queue's unique-key contract, and k is no multiple of p.
// There only the threshold and the shares are defined, and are checked.
func TestDeleteMinEdgeCasesAgainstSortOracle(t *testing.T) {
	const p, n = 8, 240
	unique := make([]uint64, n)
	for i := range unique {
		unique[i] = uint64(3*i + 1)
	}
	split := func(owner func(i int) int) [][]uint64 {
		parts := make([][]uint64, p)
		for i, v := range unique {
			parts[owner(i)] = append(parts[owner(i)], v)
		}
		return parts
	}
	someEmpty := split(func(i int) int { return []int{0, 3, 4, 7}[i%4] })
	short := split(func(i int) int { return i % p })
	for r := range short {
		short[r] = short[r][:3]
	}
	onePE := split(func(int) int { return 5 })
	spread := split(func(i int) int { return (i * i) % p })
	ties := make([][]uint64, p)
	for r := range ties {
		ties[r] = unique[:n/p]
	}
	var cases []dmCase
	for _, sh := range []struct {
		name  string
		parts [][]uint64
	}{{"some-empty", someEmpty}, {"short", short}, {"one-pe", onePE}, {"spread", spread}} {
		var total int64
		for _, part := range sh.parts {
			total += int64(len(part))
		}
		for _, k := range []int64{1, 2, 13, total - 1, total, total + 5} {
			cases = append(cases, dmCase{name: fmt.Sprintf("%s k=%d", sh.name, k), parts: sh.parts, kmin: k, kmax: k})
		}
		k := total / 3
		cases = append(cases, dmCase{name: fmt.Sprintf("%s flex k=%d..%d", sh.name, k, k), parts: sh.parts, kmin: k, kmax: k, flex: true})
	}
	cases = append(cases, dmCase{name: "cross-PE ties flex k=45..45", parts: ties, kmin: 45, kmax: 45, flex: true, ties: true})

	for _, c := range cases {
		var union []uint64
		for _, part := range c.parts {
			union = append(union, part...)
		}
		slices.Sort(union)
		total := int64(len(union))
		want := min(c.kmin, total)
		blocking := comm.NewMachine(comm.DefaultConfig(p))
		ref := runDeleteCase(blocking, c)
		blocking.Close()
		// The oracle.
		var got []uint64
		for r, b := range ref.batches {
			if !slices.IsSorted(b) {
				t.Errorf("%s: rank %d's share is not ascending", c.name, r)
			}
			got = append(got, b...)
		}
		slices.Sort(got)
		thr := ref.thresholds[0]
		switch {
		case c.ties:
			if thr != union[c.kmin-1] {
				t.Errorf("%s: threshold %d, oracle %d", c.name, thr, union[c.kmin-1])
			}
			for r, b := range ref.batches {
				if want := c.parts[r][:sel.SliceSeq[uint64](c.parts[r]).CountLE(thr)]; !slices.Equal(b, want) {
					t.Errorf("%s: rank %d removed %v, want its keys ≤ %d", c.name, r, b, thr)
				}
			}
			// A counted estimation round reports a rank count, a multiple
			// of p here; the fallback reports k.
			if ref.ns[0] != c.kmin {
				t.Errorf("%s: realized n %d: the flexible search did not fall back", c.name, ref.ns[0])
			}
		case !slices.Equal(got, union[:want]):
			t.Errorf("%s: removed %d keys, not the %d smallest", c.name, len(got), want)
		case ref.ns[0] != want || ref.left != total-want:
			t.Errorf("%s: realized n %d, %d left; want %d and %d", c.name, ref.ns[0], ref.left, want, total-want)
		case want < total && thr != union[want-1]:
			t.Errorf("%s: threshold %d, oracle %d", c.name, thr, union[want-1])
		}
		// The executions.
		check := func(mode string, o dmOutcome) {
			for r := range o.batches {
				if !slices.Equal(o.batches[r], ref.batches[r]) || o.thresholds[r] != ref.thresholds[r] || o.ns[r] != ref.ns[r] {
					t.Errorf("%s %s: rank %d (%v, %d, %d), default machine (%v, %d, %d)", c.name, mode, r,
						o.batches[r], o.thresholds[r], o.ns[r], ref.batches[r], ref.thresholds[r], ref.ns[r])
				}
			}
			if o.stats != ref.stats || o.left != ref.left {
				t.Errorf("%s %s: stats %+v, %d left; default machine %+v, %d left", c.name, mode, o.stats, o.left, ref.stats, ref.left)
			}
		}
		cfg := comm.DefaultConfig(p)
		cfg.Workers = 3
		m := comm.NewMachine(cfg)
		check("w=3", runDeleteCase(m, c))
		m.Close()
		for _, pol := range simexec.Policies {
			m, _ := simexec.New(comm.DefaultConfig(p), int64(len(c.name)), pol)
			check("simexec/"+pol.String(), runDeleteCase(m, c))
			m.Close()
		}
	}
}

// TestDeleteMinFlexibleSumsSizeOnce: a flexible batch sums the queue
// length once and hands the total to the flexible selection
// (sel.AMSSelectN), which therefore opens with no size sum of its own:
// every PE sends exactly what sel.AMSSelectN with the queue's selection
// stream sends, plus the one-word size sum's log₂ p messages. Summing the
// length twice sent log₂ p more.
func TestDeleteMinFlexibleSumsSizeOnce(t *testing.T) {
	const p, seed = 8, 12
	logp := int64(bits.Len(uint(p)) - 1)
	parts, sorted := uniqueValues(11, 8000, p)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	twin := make([]int64, p)
	twinRes := make([]sel.AMSResult[uint64], p)
	m.MustRun(func(pe *comm.PE) {
		r := pe.Rank()
		before := pe.Sends()
		rng := xrand.NewPE(int64(xrand.NewPE(seed, r).Uint64()), r)
		mine := slices.Sorted(slices.Values(parts[r]))
		twinRes[r] = sel.AMSSelectN(pe, sel.SliceSeq[uint64](mine), int64(len(sorted)), 1000, 2000, rng)
		twin[r] = pe.Sends() - before
	})
	twinStats := m.Stats()
	m.ResetStats()
	sent := make([]int64, p)
	batches := make([][]uint64, p)
	var n int64
	m.MustRun(func(pe *comm.PE) {
		q := New[uint64](pe, seed)
		q.InsertBulk(parts[pe.Rank()])
		before := pe.Sends()
		batch, got := q.DeleteMinFlexible(1000, 2000)
		sent[pe.Rank()] = pe.Sends() - before
		batches[pe.Rank()] = batch
		if pe.Rank() == 0 {
			n = got
		}
	})
	if n < 1000 || n > 2000 {
		t.Fatalf("batch of %d outside [1000, 2000]", n)
	}
	all := slices.Concat(batches...)
	slices.Sort(all)
	if !slices.Equal(all, sorted[:n]) {
		t.Errorf("the batch is not the %d smallest keys", n)
	}
	if n != twinRes[0].Count {
		t.Errorf("batch of %d, the selection's count %d", n, twinRes[0].Count)
	}
	for r, s := range sent {
		if s != twin[r]+logp {
			t.Errorf("rank %d sent %d messages, want the selection's %d + log₂p", r, s, twin[r])
		}
	}
	if s := m.Stats(); s.TotalWords != twinStats.TotalWords+int64(p)*logp {
		t.Errorf("%d words, want the selection's %d + a 1-word butterfly", s.TotalWords, twinStats.TotalWords)
	}
	t.Logf("the selection took %d rounds: %d messages per PE", twinRes[0].Rounds, sent[0])
}
