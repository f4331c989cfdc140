// Package mtopk implements the multicriteria top-k algorithms of
// Section 6 of the paper: the sequential threshold algorithm of Fagin
// (TA) as the reference, RDTA for randomly distributed objects, and DTA
// (Algorithm 3) for arbitrary distribution.
//
// Data model: every object lives wholly on one PE together with its m
// scores; each PE keeps m lists ranking its local objects by each score
// (the paper's distributed setting: "each PE has a subset of the objects
// and m sorted lists ranking its locally present objects"). Overall
// relevance is a monotone scoring function t(x₁,...,x_m).
//
// DTA, RDTA and TopK are collectives in straight-line blocking code:
// every PE calls them inside an SPMD body.
package mtopk

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/commbuf"
	"commtopk/internal/dht"
	"commtopk/internal/qsel"
	"commtopk/internal/sel"
	"commtopk/internal/xrand"
)

// ScoreFunc maps the m per-criterion scores to an overall relevance; it
// must be monotone in every argument (Fagin's requirement).
type ScoreFunc func(scores []float64) float64

// SumScore is the canonical monotone aggregate.
func SumScore(scores []float64) float64 {
	var s float64
	for _, x := range scores {
		s += x
	}
	return s
}

// Object is one item with its per-criterion scores.
type Object struct {
	ID     uint64
	Scores []float64
}

// Hit is a scored result object.
type Hit struct {
	ID    uint64
	Score float64
}

// listEntry is one row of a score list: a score and the position of its
// object in ids/scores.
type listEntry struct {
	score float64
	pos   int32
}

// Data is one PE's share of the dataset: objects plus m local rankings.
// All indexes are map-free (slices in insertion order, dense rank arrays
// and a pooled dht.Table id→position index), so every scan over the data
// — the sequential TA, the hit collection, the brute-force reference —
// visits objects in a fixed order and repeated runs are bit-identical: no
// Go map iteration order anywhere (the class of nondeterminism that
// produced the agg ECSum flake fixed in PR 2).
type Data struct {
	m      int
	ids    []uint64      // insertion order
	scores [][]float64   // aligned with ids
	index  *dht.Table    // id → position in ids/scores
	lists  [][]listEntry // per criterion: score descending, then id ascending
	ranks  []int32       // ranks[pos*m+i]: rank (0-based) of object pos in list i
	ords   [][]uint64    // per criterion: ascending OrdDesc keys for selection
}

// NewData indexes a PE's local objects. Every object must carry exactly m
// scores; IDs must be globally unique (they identify objects across PEs).
//
// The lists come from one sorting engine, qsel's stable radix sort: the
// positions are sorted by id once, and each list sorts that order stably
// by OrdDesc(score), so equal scores keep ascending ids — score
// descending, then id ascending, a total order. OrdDesc ranks +0 above
// −0, which keeps every ords list ascending.
func NewData(objects []Object, m int) *Data {
	n := len(objects)
	d := &Data{
		m:      m,
		ids:    make([]uint64, n),
		scores: make([][]float64, n),
		index:  dht.NewTable(n),
		lists:  make([][]listEntry, m),
		ranks:  make([]int32, n*m),
		ords:   make([][]uint64, m),
	}
	order := make([]int32, n)
	for pos, o := range objects {
		if len(o.Scores) != m {
			panic(fmt.Sprintf("mtopk: object %d has %d scores, want %d", o.ID, len(o.Scores), m))
		}
		d.ids[pos], d.scores[pos], order[pos] = o.ID, o.Scores, int32(pos)
		d.index.Set(o.ID, int64(pos))
	}
	in, ka, kb := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	pa, pb := make([]int32, n), make([]int32, n)
	sortedIDs, byID := qsel.SortPairs(d.ids, order, ka, pa, kb, pb)
	for r := 1; r < n; r++ {
		if sortedIDs[r] == sortedIDs[r-1] {
			panic(fmt.Sprintf("mtopk: duplicate object id %d", sortedIDs[r]))
		}
	}
	copy(order, byID)
	for i := 0; i < m; i++ {
		for r, pos := range order {
			in[r] = OrdDesc(d.scores[pos][i])
		}
		ords, perm := qsel.SortPairs(in, order, ka, pa, kb, pb)
		d.ords[i] = slices.Clone(ords)
		list := make([]listEntry, n)
		for r, pos := range perm {
			list[r] = listEntry{score: FromOrdDesc(ords[r]), pos: pos}
			d.ranks[int(pos)*m+i] = int32(r)
		}
		d.lists[i] = list
	}
	return d
}

// NumObjects returns the local object count.
func (d *Data) NumObjects() int { return len(d.ids) }

// M returns the number of criteria.
func (d *Data) M() int { return d.m }

// Score evaluates t on an object's local score vector ("random access").
func (d *Data) Score(id uint64, t ScoreFunc) (float64, bool) {
	pos, ok := d.index.Get(id)
	if !ok {
		return 0, false
	}
	return t(d.scores[pos]), true
}

// OrdDesc maps a float score to a uint64 whose ascending order equals
// descending score order — the packing that lets the generic ascending
// selection algorithms of internal/sel run on score lists. Lossless.
func OrdDesc(score float64) uint64 {
	u := math.Float64bits(score)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return ^u
}

// FromOrdDesc inverts OrdDesc.
func FromOrdDesc(u uint64) float64 {
	u = ^u
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u)
}

// ---------------------------------------------------------------------------
// Sequential threshold algorithm (Fagin) — the reference DTA approximates
// ---------------------------------------------------------------------------

// SequentialTA runs the original threshold algorithm on a single dataset:
// scan one object per list per iteration, random-access its full score,
// stop once the k-th best seen reaches the threshold t(x₁..x_m) of the
// last scanned scores. Returns the top-k hits (best first) and K, the
// number of scanned list rows.
func SequentialTA(d *Data, t ScoreFunc, k int) ([]Hit, int) {
	seen := dht.NewSumTable(k)
	defer seen.Release()
	K := 0
	n := 0
	for i := 0; i < d.m; i++ {
		if len(d.lists[i]) > n {
			n = len(d.lists[i])
		}
	}
	xs := make([]float64, d.m)
	for row := 0; row < n; row++ {
		K++
		for i := 0; i < d.m; i++ {
			if row >= len(d.lists[i]) {
				continue
			}
			e := d.lists[i][row]
			xs[i] = e.score
			if _, ok := seen.Get(d.ids[e.pos]); !ok {
				seen.Set(d.ids[e.pos], t(d.scores[e.pos]))
			}
		}
		if seen.Len() >= k {
			tau := t(xs)
			if kthBest(seen, k) >= tau {
				break
			}
		}
	}
	return topHits(seen, k), K
}

func kthBest(seen *dht.SumTable, k int) float64 {
	scores := make([]float64, 0, seen.Len())
	seen.ForEach(func(_ uint64, s float64) { scores = append(scores, s) })
	slices.Sort(scores)
	return scores[len(scores)-min(k, len(scores))]
}

func topHits(seen *dht.SumTable, k int) []Hit {
	hits := make([]Hit, 0, seen.Len())
	seen.ForEach(func(id uint64, s float64) { hits = append(hits, Hit{ID: id, Score: s}) })
	slices.SortFunc(hits, compareHitsDesc)
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// BruteForceTopK scores every object — exact ground truth for tests.
func BruteForceTopK(d *Data, t ScoreFunc, k int) []Hit {
	seen := dht.NewSumTable(len(d.ids))
	defer seen.Release()
	for pos, id := range d.ids {
		seen.Set(id, t(d.scores[pos]))
	}
	return topHits(seen, k)
}

// ---------------------------------------------------------------------------
// DTA — Algorithm 3 (arbitrary data distribution)
// ---------------------------------------------------------------------------

// DTAResult is the outcome of the distributed threshold algorithm.
type DTAResult struct {
	// Threshold is t(x₁..x_m), the final stopping threshold.
	Threshold float64
	// K is the final per-list scan depth guess.
	K int64
	// PrefixLens are this PE's local prefix lengths |L'_i| per list.
	PrefixLens []int
	// Hits are this PE's local objects from the prefixes with overall
	// score ≥ Threshold (deduplicated locally). Their union over PEs
	// contains the true top-k with high probability.
	Hits []Hit
	// Rounds is the number of exponential-search rounds run (a round
	// whose depths all have mK < k cannot pass and is skipped uncounted).
	Rounds int
	// EstimatedHits is the final sampling-based hit estimate H.
	EstimatedHits float64
}

// DTA runs Algorithm 3: exponential search on the TA scan depth K, with
// the approximate multisequence selection of Section 4.3 approximating
// the globally K-th largest score of every list and a sampling-based
// truthful estimator of the number of hits. Expected time
// O(m² log²K + βm logK + α log p logK) — Theorem 6. The α term is one
// selection's per search step: the m list selections of a step are the
// lanes of one sel.AMSSelectLanes, whose rounds reduce all lists at
// once. The search starts at the first K with mK ≥ k: an estimate is at
// most the 2mK selected entries, so a smaller K cannot reach 2k.
// Collective.
func DTA(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG) DTAResult {
	return DTAProbed(pe, d, t, k, 1, rng)
}

// DTAProbed is DTA with the Section 6 refinement "we can further reduce
// the latency of DTA by trying several values of K in each iteration":
// each round evaluates `probes` scan depths K, 4K, 16K, ... concurrently
// — their m·probes list selections are lanes of one selection and their
// estimates one vector sum — and jumps directly to the smallest depth
// whose hit estimate suffices, cutting the number of exponential-search
// rounds by the probe factor at the cost of O(probes) words per
// selection round. Depths that cannot pass (mK < k) are left out, and
// so are those beyond the first that covers every object. probes = 1 is
// plain DTA. Collective.
func DTAProbed(pe *comm.PE, d *Data, t ScoreFunc, k int, probes int, rng *xrand.RNG) DTAResult {
	if k < 1 {
		panic("mtopk: k must be positive")
	}
	if probes < 1 {
		panic("mtopk: probes must be positive")
	}
	nGlobal := coll.SumAll(pe, int64(d.NumObjects()))
	if nGlobal == 0 {
		return DTAResult{PrefixLens: make([]int, d.m)}
	}
	b := comm.GetPooled[dtaBuf](pe)
	defer b.release(pe)
	var res DTAResult
	m := d.m
	// A depth can end the search only if it covers every object or mK ≥ k:
	// its estimate is at most the 2mK selected list entries.
	canPass := func(K int64) bool { return K >= nGlobal || int64(m)*K >= int64(k) }
	probe := int64(k)/(int64(m)*int64(pe.P())) + 1
	for {
		// A round's lattice is probe, 4·probe, … (probes depths; the next
		// round starts at twice the last). It keeps the depths that can
		// pass, up to the first that covers every object (a larger one
		// cannot be the smallest to pass); a round with none is skipped
		// without communication.
		b.ks = b.ks[:0]
		K := probe
		for j := 0; j < probes; j++ {
			if j > 0 {
				K *= 4
			}
			if canPass(K) && (len(b.ks) == 0 || b.ks[len(b.ks)-1] < nGlobal) {
				b.ks = append(b.ks, K)
			}
		}
		probe = 2 * K
		if len(b.ks) == 0 {
			continue
		}
		res.Rounds++
		// The kept depths' lists are the lanes of one selection. K ≥ n
		// selects the whole list: its lane reduces to the global maximum
		// key, the list's minimum score.
		b.lanes = b.lanes[:0]
		for _, K := range b.ks {
			for i := 0; i < m; i++ {
				b.lanes = append(b.lanes, sel.AMSLane[uint64]{
					Seq: sel.SliceSeq[uint64](d.ords[i]), KMin: min(K, nGlobal), KMax: 2 * K, N: nGlobal,
				})
			}
		}
		sel.AMSSelectLanes(pe, b.lanes, rng)
		// All list thresholds in hand: estimate each depth's number of
		// hits by sampling its prefixes (rejecting objects already present
		// in an earlier list's prefix to avoid double counting). lens is
		// handed out as PrefixLens, so it is fresh every round.
		lens := make([]int, len(b.lanes))
		b.xs = commbuf.Resize(b.xs[:0], len(b.lanes))
		for j, l := range b.lanes {
			lens[j] = min(l.Res.LocalLen, len(d.lists[j%m]))
			b.xs[j] = FromOrdDesc(l.Res.Threshold)
		}
		b.est = b.est[:0]
		for j, K := range b.ks {
			depthLens := lens[j*m : (j+1)*m]
			thr := t(b.xs[j*m : (j+1)*m])
			y := 4 * int(math.Log2(float64(K)+2))
			var localEst float64
			for i := 0; i < m; i++ {
				pl := depthLens[i]
				if pl == 0 {
					continue
				}
				var rejected, hits int
				for sm := 0; sm < y; sm++ {
					e := d.lists[i][rng.Intn(pl)]
					if d.inEarlierPrefix(e.pos, i, depthLens) {
						rejected++
						continue
					}
					if sc := t(d.scores[e.pos]); sc >= thr {
						hits++
					}
				}
				localEst += float64(pl) * (1 - float64(rejected)/float64(y)) * (float64(hits) / float64(y))
			}
			b.est = append(b.est, localEst)
		}
		b.ests = commbuf.Resize(b.ests[:0], len(b.est))
		comm.RunSteps(pe, coll.AllReduceIntoStep(pe, b.ests, b.est, addF64, nil))
		// The smallest depth that passes ends the search.
		for j, K := range b.ks {
			if est := b.ests[j]; est >= 2*float64(k) || K >= nGlobal {
				res.PrefixLens = lens[j*m : (j+1)*m : (j+1)*m]
				res.Threshold = t(b.xs[j*m : (j+1)*m])
				res.EstimatedHits = est
				res.K = K
				res.Hits = d.collectHits(t, res.Threshold, res.PrefixLens)
				return res
			}
		}
	}
}

// dtaBuf holds DTA's per-round buffers on a PE across uses: the depths
// of a round, their list lanes, the lanes' thresholds as scores, and the
// local and global hit estimates, one per depth.
type dtaBuf struct {
	ks        []int64
	lanes     []sel.AMSLane[uint64]
	xs        []float64
	est, ests []float64
}

func (b *dtaBuf) release(pe *comm.PE) {
	clear(b.lanes) // drop the Seq references
	comm.PutPooled(pe, b)
}

func addF64(a, b float64) float64 { return a + b }

// inEarlierPrefix reports whether the object at position pos also
// appears in the prefix of an earlier list — purely local, since all of
// an object's list entries live on its home PE: m dense rank reads, no
// lookup.
func (d *Data) inEarlierPrefix(pos int32, i int, prefixLens []int) bool {
	ranks := d.ranks[int(pos)*d.m:]
	for j := 0; j < i; j++ {
		if int(ranks[j]) < prefixLens[j] {
			return true
		}
	}
	return false
}

// collectHits scans the local prefixes and returns deduplicated objects
// with overall score at least thr, best first. An object is taken in the
// first list whose prefix holds it (inEarlierPrefix skips it in later
// ones), so the scan needs no seen-set.
func (d *Data) collectHits(t ScoreFunc, thr float64, prefixLens []int) []Hit {
	var hits []Hit
	for i := 0; i < d.m; i++ {
		for _, e := range d.lists[i][:min(prefixLens[i], len(d.lists[i]))] {
			if d.inEarlierPrefix(e.pos, i, prefixLens) {
				continue
			}
			if sc := t(d.scores[e.pos]); sc >= thr {
				hits = append(hits, Hit{ID: d.ids[e.pos], Score: sc})
			}
		}
	}
	slices.SortFunc(hits, compareHitsDesc)
	return hits
}

// compareHitsDesc orders hits by score descending, then id ascending. The
// score order is that of OrdDesc, the key the selections run on, so a
// sorted hit list has ascending ords (+0 ranks above −0): a total order
// wherever ids are unique, as they are within a Data and, by NewData's
// contract, across PEs.
func compareHitsDesc(a, b Hit) int {
	if c := cmp.Compare(OrdDesc(a.Score), OrdDesc(b.Score)); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// selectHits keeps this PE's share of the k best of every PE's hits
// (sorted by compareHitsDesc): the unsorted selection of Section 4.1 on
// their ords, whose prefix sum splits ties at the boundary fairly.
// Collective.
func selectHits(pe *comm.PE, hits []Hit, k int, rng *xrand.RNG) []Hit {
	ords := make([]uint64, len(hits))
	for i, h := range hits {
		ords[i] = OrdDesc(h.Score)
	}
	take := min(int64(k), coll.SumAll(pe, int64(len(ords))))
	return grantHits(hits, sel.SmallestK(pe, ords, take, rng))
}

// grantHits maps SmallestK's selected ords back to local hits: ords may
// repeat only for exactly equal scores, and SmallestK has already split
// those fairly — keep as many local hits per ord as it granted us. The
// hits ascend in ord, so one walk over the sorted selection pairs them.
func grantHits(hits []Hit, selected []uint64) []Hit {
	slices.Sort(selected)
	var out []Hit
	j := 0
	for _, h := range hits {
		o := OrdDesc(h.Score)
		for j < len(selected) && selected[j] < o {
			j++
		}
		if j < len(selected) && selected[j] == o {
			out = append(out, h)
			j++
		}
	}
	return out
}

// TopK completes DTA into an exact top-k query: it collects the DTA hits
// and runs the unsorted selection of Section 4.1 on their scores to
// identify the k most relevant; ties at the boundary are split by a
// prefix sum. Returns this PE's share of the top-k. Collective.
func TopK(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG) ([]Hit, DTAResult) {
	res := DTA(pe, d, t, k, rng)
	return selectHits(pe, res.Hits, k, rng), res
}

// ---------------------------------------------------------------------------
// RDTA — randomly distributed objects
// ---------------------------------------------------------------------------

// RDTA exploits random object placement: each PE runs the sequential TA
// locally for k̂ = c·(k/p + log p) results, the global threshold is the
// max of the local thresholds, and the candidate count above it is
// verified; on failure k̂ doubles (Section 6, "Random Data Distribution").
// Returns this PE's share of the top-k. Collective.
func RDTA(pe *comm.PE, d *Data, t ScoreFunc, k int, rng *xrand.RNG) []Hit {
	p, nLocal := pe.P(), d.NumObjects()
	kHat := k/p + 2*bitLen(p) + 1
	for {
		kHat = min(kHat, nLocal)
		hits, _ := SequentialTA(d, t, max(kHat, 1))
		// Local threshold: worst score this PE can still vouch for (the
		// entire local set scanned means -inf — we have everything).
		tau := math.Inf(-1)
		if len(hits) == kHat && kHat > 0 {
			tau = hits[len(hits)-1].Score
		}
		globalTau := coll.AllReduceScalar(pe, tau, math.Max)
		var above int64
		for _, h := range hits {
			if h.Score >= globalTau {
				above++
			}
		}
		total := coll.SumAll(pe, above)
		if total >= int64(k) || int64(nLocal*p) <= int64(k) || kHat >= nLocal {
			// Verified (or exhausted): select the top-k among candidates.
			return selectHits(pe, hits, k, rng)
		}
		kHat *= 2
	}
}

func bitLen(x int) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// GenObjects generates n objects with m independent uniform scores — the
// standard threshold-algorithm benchmark workload.
func GenObjects(rng *xrand.RNG, n, m int, idOffset uint64) []Object {
	out := make([]Object, n)
	for i := range out {
		scores := make([]float64, m)
		for j := range scores {
			scores[j] = rng.Float64()
		}
		out[i] = Object{ID: idOffset + uint64(i), Scores: scores}
	}
	return out
}

// GenCorrelatedObjects generates objects whose criteria are positively
// correlated (an easier TA instance, used by the ablation benches).
func GenCorrelatedObjects(rng *xrand.RNG, n, m int, idOffset uint64) []Object {
	out := make([]Object, n)
	for i := range out {
		base := rng.Float64()
		scores := make([]float64, m)
		for j := range scores {
			scores[j] = 0.7*base + 0.3*rng.Float64()
		}
		out[i] = Object{ID: idOffset + uint64(i), Scores: scores}
	}
	return out
}
