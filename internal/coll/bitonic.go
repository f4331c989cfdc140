package coll

import (
	"fmt"
	"sort"

	"commtopk/internal/comm"
)

// mergeElem travels through the bitonic network: a sort key plus the
// origin it reports its final position back to.
type mergeElem struct {
	Key    uint64
	Origin int32 // contributing PE
	Seq    int32 // 0 = first sequence, 1 = second, -1 = padding
}

// posReport routes a final position back to the element's origin.
type posReport struct {
	Origin int32
	Seq    int32
	Pos    int32
}

// BitonicMergePositions merges two globally sorted sequences — sequence A
// holds aKey of PE r at index r, sequence B holds bKey likewise; both must
// be globally ascending in rank and all 2p keys globally unique — using
// Batcher's bitonic merge network with one compare-exchange round per
// stage: O(α log p) latency and O(1) words per PE per stage, exactly the
// merge step Section 9 of the paper uses to match surplus runs with
// receiving slots. It returns this PE's elements' positions (0-based) in
// the merged order of all 2p keys.
func BitonicMergePositions(pe *comm.PE, aKey, bKey uint64) (posA, posB int) {
	p := pe.P()
	if p == 1 {
		if aKey == bKey {
			panic("coll: BitonicMergePositions requires unique keys")
		}
		if aKey < bKey {
			return 0, 1
		}
		return 1, 0
	}
	// Virtual network size: next power of two ≥ 2p, padded with sentinel
	// elements smaller than every real key (real keys are shifted up by
	// the pad count to guarantee that).
	m := 1
	for m < 2*p {
		m <<= 1
	}
	padPerHalf := m/2 - p
	pads := 2 * padPerHalf
	shift := uint64(pads)
	if aKey > ^uint64(0)-shift || bKey > ^uint64(0)-shift {
		panic("coll: BitonicMergePositions key overflow")
	}

	// Slot layout (ascending-then-descending = bitonic):
	//   [0, padPerHalf)              A-half padding (sentinels, ascending)
	//   [padPerHalf, m/2)            A ascending: slot padPerHalf+r = A of PE r
	//   [m/2, m/2+p)                 B descending: slot m/2+i = B of PE p-1-i
	//   [m/2+p, m)                   B-half padding (sentinels, descending)
	ownerOf := func(q int) int {
		switch {
		case q < padPerHalf:
			return q % p
		case q < m/2:
			return q - padPerHalf
		case q < m/2+p:
			return p - 1 - (q - m/2)
		default:
			return (q - m/2 - p) % p
		}
	}
	// Sentinel keys: A-half pads ascending 0..padPerHalf-1; B-half pads
	// descending padPerHalf-1..0 offset into the second pad block — all
	// distinct and below every shifted real key.
	padKey := func(q int) uint64 {
		if q < padPerHalf {
			return uint64(q)
		}
		return uint64(padPerHalf) + uint64(m-1-q)
	}

	// My slots and initial contents.
	slots := map[int]mergeElem{}
	for q := 0; q < m; q++ {
		if ownerOf(q) != pe.Rank() {
			continue
		}
		switch {
		case q >= padPerHalf && q < m/2:
			slots[q] = mergeElem{Key: aKey + shift, Origin: int32(pe.Rank()), Seq: 0}
		case q >= m/2 && q < m/2+p:
			slots[q] = mergeElem{Key: bKey + shift, Origin: int32(pe.Rank()), Seq: 1}
		default:
			slots[q] = mergeElem{Key: padKey(q), Origin: int32(ownerOf(q)), Seq: -1}
		}
	}

	tag := pe.NextCollTag()
	for h := m / 2; h >= 1; h /= 2 {
		// My pairings this stage, in pair-id order so that per-partner
		// message sequences agree on both ends.
		type pairing struct {
			low, mine int
		}
		var pairs []pairing
		for q := range slots {
			pairs = append(pairs, pairing{low: q &^ h, mine: q})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].low != pairs[j].low {
				return pairs[i].low < pairs[j].low
			}
			return pairs[i].mine < pairs[j].mine
		})
		for _, pr := range pairs {
			q := pr.mine
			partner := q ^ h
			po := ownerOf(partner)
			if po == pe.Rank() {
				// Local compare-exchange, handled once from the low slot.
				if q < partner {
					lo, hi := slots[q], slots[partner]
					if hi.Key < lo.Key {
						slots[q], slots[partner] = hi, lo
					}
				}
				continue
			}
			mine := slots[q]
			rx, _ := pe.SendRecv(po, mine, 2, po, tag)
			theirs := rx.(mergeElem)
			if q < partner {
				if theirs.Key < mine.Key {
					slots[q] = theirs
				}
			} else {
				if theirs.Key > mine.Key {
					slots[q] = theirs
				}
			}
		}
	}

	// Report final positions back to origins (positions among the real
	// elements: pads occupy the first `pads` merged slots).
	var reports []posReport
	for q, e := range slots {
		if e.Seq < 0 {
			continue
		}
		pos := q - pads
		if pos < 0 {
			panic(fmt.Sprintf("coll: real element sorted into pad zone (slot %d)", q))
		}
		reports = append(reports, posReport{Origin: e.Origin, Seq: e.Seq, Pos: int32(pos)})
	}
	back := routeCombine(pe, reports, func(r posReport) int { return int(r.Origin) }, nil)
	posA, posB = -1, -1
	for _, r := range back {
		if r.Seq == 0 {
			posA = int(r.Pos)
		} else {
			posB = int(r.Pos)
		}
	}
	if posA < 0 || posB < 0 {
		panic("coll: bitonic merge lost an element (duplicate keys?)")
	}
	return posA, posB
}
