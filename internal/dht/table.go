package dht

import (
	"fmt"
	"math/bits"

	"commtopk/internal/commbuf"
)

// Table is an open-addressing uint64 → int64 table whose slot and
// control arrays are pooled buffers (internal/commbuf), so a table built
// and released per query allocates nothing in the steady state. Counting
// does not use it (counts are runs, see SumKVs); its callers are keyed
// lookups: mtopk's id → position index and grant counts, the exact-count
// pass's candidate index (internal/freq) and bench's table probe.
//
// The probe loop is cache-conscious in the SwissTable style: liveness and
// a 7-bit hash tag live in a separate control array, one byte per slot,
// packed eight to a uint64 word so a whole group of eight slots is
// tag-matched with three word ops (SWAR zero-byte finder) before any
// 16-byte slot is touched. Slots store only {key, val} — no liveness
// byte, so a cache line holds four of them instead of two — and a probe
// walks groups linearly, stopping at the first group containing an empty
// byte (the table never deletes, so an empty byte ends every probe
// chain). Tag mismatches are rejected eight at a time without leaving the
// control line; the slot array is read only for the (rare) tag hits.
//
// SumTable is the same structure over float64 values: the sequential
// threshold algorithm's seen-set (internal/mtopk) and the reference the
// sum-aggregation layer's sorted-run aggregate is tested against.
//
// Iteration (ForEach) is in slot order, which is a pure function of the
// insertion sequence — deterministic wherever the insertions are, unlike
// Go map iteration. Keys hash through
// Mix, the same finalizer that shards keys across PEs: the group index
// comes from its low bits, the control tag from its top seven.
//
// A Table is not safe for concurrent use; like all per-PE state it lives
// on one PE at a time. Call Release to return the arrays to the pool (the
// zero Table and a released Table are both usable again and simply
// re-acquire storage on first insert).
type Table struct {
	tableOf[int64]
}

// NewTable returns a count table pre-sized for about hint live keys.
func NewTable(hint int) *Table {
	t := &Table{}
	t.presize(hint)
	return t
}

// SumTable is Table over float64 values: uint64 → float64 value sums
// (see Table's doc). The zero value is usable.
type SumTable struct {
	tableOf[float64]
}

// NewSumTable returns a value-sum table pre-sized for about hint keys.
func NewSumTable(hint int) *SumTable {
	t := &SumTable{}
	t.presize(hint)
	return t
}

// tableOf is the open-addressing engine shared by Table and SumTable.
//
// ctrl holds one byte per slot, eight slots to a word: 0x00 for empty,
// 0x80|tag for live, where tag is the top seven bits of Mix(key). slots
// is never cleared — a slot's bytes are meaningful only while its control
// byte is live, so grow touches just the control words (n/8 words
// instead of n slots).
type tableOf[V int64 | float64] struct {
	ctrl  *[]uint64
	slots *[]slotOf[V]
	used  int
	total V
}

type slotOf[V int64 | float64] struct {
	key uint64
	val V
}

const (
	ctrlLive = 0x80               // high bit of every live control byte
	lowBytes = 0x0101010101010101 // SWAR broadcast constants
	highBits = 0x8080808080808080
)

// ctrlTag returns the control byte for a key's hash: live bit + top
// seven hash bits. The group index uses the hash's low bits, so tag and
// placement are independent.
func ctrlTag(h uint64) uint64 { return (h >> 57) | ctrlLive }

// matchWord flags (with the byte's high bit) every zero byte of x.
// Empty-slot detection passes ctrl words directly: live bytes all have
// the high bit set, so the borrow chain cannot false-positive on them and
// the result is exact. Tag matching passes ctrl ^ (tag·lowBytes): a
// matching live byte XORs to zero; a non-matching one may rarely be
// flagged through a borrow, which costs only a key compare.
func matchWord(x uint64) uint64 { return (x - lowBytes) &^ x & highBits }

func (t *tableOf[V]) presize(hint int) {
	if hint > 0 {
		t.grow(slotsFor(hint))
	}
}

// slotsFor returns the power-of-two slot count that keeps hint keys
// under the ~2/3 load-factor ceiling.
func slotsFor(hint int) int {
	n := 16
	for n*2 < hint*3 {
		n <<= 1
	}
	return n
}

// Len returns the number of live keys.
func (t *tableOf[V]) Len() int { return t.used }

// Total returns the sum of all counts/values — maintained incrementally,
// so realized sample sizes and value masses cost O(1) instead of a full
// scan.
func (t *tableOf[V]) Total() V { return t.total }

// find returns the index of the slot holding key (live=true) or of the
// first empty slot on key's probe chain (live=false). Group-at-a-time:
// each iteration tag-matches eight control bytes in three word ops, reads
// the slot array only on tag hits, and terminates at the first group
// containing an empty byte. The control and slot slices are loaded into
// locals once, hoisting the pointer-chase and length loads out of the
// probe loop. Requires a non-nil slot array.
func (t *tableOf[V]) find(key uint64) (idx int, live bool) {
	ctrl := *t.ctrl
	slots := *t.slots
	h := Mix(key)
	gm := uint64(len(ctrl) - 1)
	tagw := ctrlTag(h) * lowBytes
	for gi := h & gm; ; gi = (gi + 1) & gm {
		w := ctrl[gi]
		for m := matchWord(w ^ tagw); m != 0; m &= m - 1 {
			i := int(gi)<<3 + bits.TrailingZeros64(m)>>3
			if slots[i].key == key {
				return i, true
			}
		}
		if e := matchWord(w); e != 0 {
			return int(gi)<<3 + bits.TrailingZeros64(e)>>3, false
		}
	}
}

// markLive publishes slot idx as holding key in the control array.
func (t *tableOf[V]) markLive(idx int, key uint64) {
	(*t.ctrl)[idx>>3] |= ctrlTag(Mix(key)) << uint((idx&7)<<3)
}

// Add increments key's count by delta, inserting it if absent.
func (t *tableOf[V]) Add(key uint64, delta V) {
	t.total += delta
	if t.slots == nil {
		t.grow(16)
	}
	idx, live := t.find(key)
	if !live {
		if t.ensure() {
			idx, _ = t.find(key)
		}
		(*t.slots)[idx] = slotOf[V]{key: key}
		t.markLive(idx, key)
		t.used++
	}
	(*t.slots)[idx].val += delta
}

// Set stores val for key, replacing any previous value. Total tracks the
// stored values like Add's deltas would.
func (t *tableOf[V]) Set(key uint64, val V) {
	if t.slots == nil {
		t.grow(16)
	}
	idx, live := t.find(key)
	if !live {
		if t.ensure() {
			idx, _ = t.find(key)
		}
		(*t.slots)[idx] = slotOf[V]{key: key}
		t.markLive(idx, key)
		t.used++
	} else {
		t.total -= (*t.slots)[idx].val
	}
	(*t.slots)[idx].val = val
	t.total += val
}

// Get returns key's count and whether it is present.
func (t *tableOf[V]) Get(key uint64) (V, bool) {
	if t.slots == nil || t.used == 0 {
		return 0, false
	}
	idx, live := t.find(key)
	if !live {
		return 0, false
	}
	return (*t.slots)[idx].val, true
}

// ensure grows the table if the next insert would push the load factor
// past ~2/3, reporting whether a rehash happened (invalidating indices).
func (t *tableOf[V]) ensure() bool {
	if t.slots != nil && (t.used+1)*3 <= len(*t.slots)*2 {
		return false
	}
	n := 16
	if t.slots != nil {
		n = len(*t.slots) * 2
	}
	t.grow(n)
	return true
}

// grow rehashes into pooled control/slot arrays of exactly n
// (power-of-two, ≥ 16) slots, recycling the previous arrays. Only the
// control words are cleared; slot bytes are garbage until marked live.
func (t *tableOf[V]) grow(n int) {
	if n&(n-1) != 0 || n < 16 {
		panic(fmt.Sprintf("dht: slot count %d not a power of two ≥ 16", n))
	}
	oldCtrl, oldSlots := t.ctrl, t.slots
	freshCtrl := commbuf.For[uint64]().Get(n >> 3)
	clear(*freshCtrl)
	t.ctrl = freshCtrl
	t.slots = commbuf.For[slotOf[V]]().Get(n)
	if oldCtrl != nil {
		oc, os := *oldCtrl, *oldSlots
		for gi, w := range oc {
			for w != 0 {
				i := bits.TrailingZeros64(w) >> 3
				w &^= 0xff << uint(i<<3)
				s := os[gi<<3+i]
				idx, _ := t.find(s.key)
				(*t.slots)[idx] = s
				t.markLive(idx, s.key)
			}
		}
		commbuf.For[uint64]().Put(oldCtrl)
		commbuf.For[slotOf[V]]().Put(oldSlots)
	}
}

// ForEach calls f for every live (key, value) pair in slot order. f must
// not mutate the table.
func (t *tableOf[V]) ForEach(f func(key uint64, val V)) {
	if t.slots == nil {
		return
	}
	slots := *t.slots
	for gi, w := range *t.ctrl {
		for w != 0 {
			i := bits.TrailingZeros64(w) >> 3
			w &^= 0xff << uint(i<<3)
			s := slots[gi<<3+i]
			f(s.key, s.val)
		}
	}
}

// Release returns the arrays to the pool; the table remains usable and
// re-acquires storage on the next insert.
func (t *tableOf[V]) Release() {
	if t.slots != nil {
		commbuf.For[uint64]().Put(t.ctrl)
		commbuf.For[slotOf[V]]().Put(t.slots)
		t.ctrl, t.slots = nil, nil
	}
	t.used, t.total = 0, 0
}
