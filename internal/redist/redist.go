// Package redist implements the adaptive data redistribution of Section 9
// of the paper: given n_i objects on PE i, move data so that afterwards
// every PE holds at most n̄ = ⌈n/p⌉ objects, with PEs above n̄ only
// sending (at most n_i − n̄ objects) and PEs below only receiving (at most
// n̄ − n_i) — the minimal-movement discipline that makes the operation
// adaptive: if the data is already balanced, nothing moves.
//
// The matching works exactly as in the paper: prefix sums over the
// surplus and deficit sequences enumerate the elements to move and the
// empty slots; merging the two enumerations pairs every surplus run with
// its receiving slots, yielding per-PE gather/scatter transfer segments.
// The merge is an all-gather of the 2p run boundaries (O(p) words per PE)
// and a local pass, where the paper merges with Batcher's O(α log p)
// bitonic network: the transfer plan — the section's actual contribution
// — is the same, and the plan-building cost is dwarfed by the transfer
// volume O(β·max_i n_i) it authorizes.
package redist

import (
	"fmt"

	"commtopk/internal/coll"
	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// Transfer is one matched segment: Count objects move between this PE and
// Peer (direction depends on which list it appears in).
type Transfer struct {
	Peer  int
	Count int64
}

// Plan is one PE's redistribution schedule. Senders have only Sends,
// receivers only Recvs; balanced PEs have neither.
type Plan struct {
	// NBar is the post-balance ceiling ⌈n/p⌉.
	NBar int64
	// Sends lists (receiver, count) segments in ascending slot order.
	Sends []Transfer
	// Recvs lists (sender, count) segments in ascending element order.
	Recvs []Transfer
}

// TotalSent returns the number of objects this PE ships out.
func (pl *Plan) TotalSent() int64 {
	var t int64
	for _, s := range pl.Sends {
		t += s.Count
	}
	return t
}

// TotalReceived returns the number of objects this PE takes in.
func (pl *Plan) TotalReceived() int64 {
	var t int64
	for _, r := range pl.Recvs {
		t += r.Count
	}
	return t
}

// boundary is one PE's run in the surplus/deficit enumeration: the global
// index of its first moved element (or open slot) and the run length.
type boundary struct {
	rank  int
	start int64
	count int64
}

// BuildPlan computes the transfer plan for the current distribution:
// the global count, the prefix sums of the surplus and deficit
// sequences, the surplus total and an all-gather of each sequence's run
// boundaries, then a purely local merge. Collective: all PEs pass their
// local object count.
func BuildPlan(pe *comm.PE, localCount int64) Plan {
	if localCount < 0 {
		panic("redist: negative local count")
	}
	p := int64(pe.P())
	n := coll.SumAll(pe, localCount)
	plan := Plan{NBar: (n + p - 1) / p}
	if n == 0 {
		return plan
	}
	surplus := max(localCount-plan.NBar, 0)
	deficit := max(plan.NBar-localCount, 0)
	sPrefix := coll.ExScanSum(pe, surplus)
	dPrefix := coll.ExScanSum(pe, deficit)
	totalSurplus := coll.SumAll(pe, surplus)
	rank := pe.Rank()
	sendRuns := coll.AllGatherConcat(pe, []boundary{{rank, sPrefix, surplus}})
	recvRuns := coll.AllGatherConcat(pe, []boundary{{rank, dPrefix, deficit}})
	// Only the first totalSurplus slots fill.
	plan.Sends = overlaps(sPrefix, sPrefix+surplus, recvRuns, totalSurplus)
	plan.Recvs = overlaps(dPrefix, dPrefix+deficit, sendRuns, totalSurplus)
	return plan
}

// overlaps pairs this PE's run [lo, hi) of one enumeration, cut at limit,
// with the opposite side's runs — the paper's merge of the two prefix-sum
// enumerations. The runs arrive in rank order and each overlaps the run
// at most once, so the transfers come out in ascending peer order.
func overlaps(lo, hi int64, runs []boundary, limit int64) []Transfer {
	var ts []Transfer
	hi = min(hi, limit)
	for _, r := range runs {
		if olo, ohi := max(r.start, lo), min(r.start+r.count, hi); olo < ohi {
			ts = append(ts, Transfer{Peer: r.rank, Count: ohi - olo})
		}
	}
	return ts
}

// Apply executes a plan: surplus objects are taken from the tail of the
// local slice and shipped to the plan's receivers; received objects are
// appended in the plan's peer order. Returns the balanced local slice.
// Collective.
func Apply[T any](pe *comm.PE, local []T, plan Plan) []T {
	sendTotal := plan.TotalSent()
	if sendTotal > int64(len(local)) {
		panic(fmt.Sprintf("redist: plan sends %d of %d local objects", sendTotal, len(local)))
	}
	tag := pe.NextCollTag()
	keep := int64(len(local)) - sendTotal
	cursor := keep
	for _, seg := range plan.Sends {
		chunk := local[cursor : cursor+seg.Count]
		pe.Send(seg.Peer, tag, chunk, int64(len(chunk))*coll.WordsOf[T]())
		cursor += seg.Count
	}
	res := local[:keep:keep]
	for _, seg := range plan.Recvs {
		rx, _ := pe.Recv(seg.Peer, tag)
		chunk := rx.([]T)
		if int64(len(chunk)) != seg.Count {
			panic(fmt.Sprintf("redist: expected %d objects from %d, got %d", seg.Count, seg.Peer, len(chunk)))
		}
		res = append(res, chunk...)
	}
	return res
}

// Balance is the convenience wrapper: plan and apply in one call.
// Collective.
func Balance[T any](pe *comm.PE, local []T) []T {
	plan := BuildPlan(pe, int64(len(local)))
	return Apply(pe, local, plan)
}

// NaiveExchange is the non-adaptive baseline for the ablation bench: the
// random (re)allocation prior algorithms rely on ([31]'s assumption that
// objects sit on random PEs), followed by an adaptive trim to meet the
// n̄ ceiling exactly. It moves Θ(n/p) words per PE regardless of how
// balanced the input already is — precisely the overhead Section 9's
// adaptive plan avoids. Collective.
func NaiveExchange[T any](pe *comm.PE, local []T, rng *xrand.RNG) []T {
	p := pe.P()
	parts := make([][]T, p)
	for _, x := range local {
		d := rng.Intn(p)
		parts[d] = append(parts[d], x)
	}
	recv := coll.AllToAll(pe, parts)
	var out []T
	for _, part := range recv {
		out = append(out, part...)
	}
	return Balance(pe, out)
}
