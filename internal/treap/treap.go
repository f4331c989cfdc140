// Package treap implements the augmented search tree of Section 2/5 of the
// paper: a randomized balanced tree over unique ordered keys that supports
// insert, delete, select-by-rank, rank-by-key, split and concatenate, all
// in expected O(log n). Subtree sizes are stored at every node, which is
// what makes select and rank possible — exactly the augmentation the paper
// requires for the bulk-parallel priority queue.
//
// Keys must be unique (the paper assumes a unique total order, obtained by
// tie-breaking if necessary); inserting a duplicate key is rejected.
//
// The structural operations (split, merge, delete, in-order walk) are
// iterative and allocation-free: merge stitches top-down through a hook
// pointer, the splits precompute the boundary rank with one search walk
// and then fix every size on the way down, and Ascend drives an explicit
// stack in a fixed array. The bulk-parallel priority queue calls these on
// every DeleteMin, so recursion frames and closure allocations on this
// path were pure overhead.
//
// # Node arena
//
// Nodes live in slab-allocated blocks owned by a per-tree arena that is
// shared with every tree split off from it (SplitByRank), with
// a free list threaded through recycled nodes' right pointers. Insert
// takes a node from the free list when one is available and bump-allocates
// from the current slab otherwise, so the only heap allocation on the
// insert path is one slab per slabSize nodes — amortized ~0 allocs/op
// instead of the former one node per Insert. Delete recycles the spliced
// node immediately; an extracted batch tree recycles all of its nodes at
// once via Recycle after the caller has read the keys out (the
// bulk-parallel priority queue's DeleteMin path). Slabs are never freed:
// a tree's high-water node count stays resident until the tree itself is
// garbage, which is exactly the churn profile the priority queue wants.
package treap

import (
	"cmp"

	"commtopk/internal/xrand"
)

type node[K cmp.Ordered] struct {
	key         K
	prio        uint64
	size        int
	left, right *node[K]
}

func size[K cmp.Ordered](n *node[K]) int {
	if n == nil {
		return 0
	}
	return n.size
}

// slab sizing: the first slab is small so tiny trees stay cheap, then
// slabs double up to a cap so big trees pay O(log n) slab allocations on
// the way up and one allocation per slabMax nodes in steady state.
const (
	slabMin = 64
	slabMax = 8192
)

// arena is the slab allocator behind a tree and all trees split off from
// it. Not safe for concurrent use — like the trees it backs, an arena
// belongs to one goroutine (one PE) at a time. The counters are plain
// ints for the same reason; ArenaStats exposes them so tests can assert
// the allocator paths are actually taken without timing or AllocsPerRun
// heuristics.
type arena[K cmp.Ordered] struct {
	slabs [][]node[K]
	used  int      // bump cursor into the last slab
	free  *node[K] // recycled nodes, threaded through right pointers

	reused   int64 // nodes handed out from the free list
	recycled int64 // nodes returned to the free list
	slabbed  int64 // slabs allocated
}

// newNode hands out a fully initialized node: free list first, bump
// allocation from the current slab otherwise.
func (a *arena[K]) newNode(key K, prio uint64) *node[K] {
	if n := a.free; n != nil {
		a.free = n.right
		a.reused++
		n.key, n.prio, n.size, n.left, n.right = key, prio, 1, nil, nil
		return n
	}
	if len(a.slabs) == 0 || a.used == len(a.slabs[len(a.slabs)-1]) {
		sz := slabMin
		if len(a.slabs) > 0 {
			sz = min(2*len(a.slabs[len(a.slabs)-1]), slabMax)
		}
		a.slabs = append(a.slabs, make([]node[K], sz))
		a.used = 0
		a.slabbed++
	}
	n := &a.slabs[len(a.slabs)-1][a.used]
	a.used++
	n.key, n.prio, n.size = key, prio, 1
	return n
}

// freeNode pushes a detached node onto the free list. The node must not
// be reachable from any tree.
func (a *arena[K]) freeNode(n *node[K]) {
	var zero K
	n.key = zero // drop pointer-carrying keys for the GC
	n.left = nil
	n.right = a.free
	a.free = n
	a.recycled++
}

// ArenaStats are the allocator's path counters; see Tree.ArenaStats.
type ArenaStats struct {
	// Slabs is the number of node blocks allocated from the heap.
	Slabs int64
	// Reused counts nodes handed out from the free list.
	Reused int64
	// Recycled counts nodes returned to the free list (Delete, Recycle).
	Recycled int64
}

// Tree is a treap over unique keys. The zero value is not usable; create
// trees with New so that priorities come from a deterministic stream.
//
// The smallest and largest keys are cached (the Section 5 augmentation
// "two arrays storing the path to the smallest and largest object",
// reduced to its observable effect): Min and Max are O(1), which is what
// the bulk-parallel priority queue's estimator probes rely on.
type Tree[K cmp.Ordered] struct {
	root *node[K]
	rng  *xrand.RNG
	ar   *arena[K] // shared with trees split off this one; lazily created

	minK, maxK K
	extOK      bool // caches valid (tree non-empty and minK/maxK current)
}

// New returns an empty tree whose rotation priorities are drawn from a
// deterministic stream seeded with seed.
func New[K cmp.Ordered](seed int64) *Tree[K] {
	return &Tree[K]{rng: xrand.New(seed), ar: &arena[K]{}}
}

// arena returns the tree's allocator, creating it on first use (covers
// trees reconstructed by struct copy from a zero value).
func (t *Tree[K]) arena() *arena[K] {
	if t.ar == nil {
		t.ar = &arena[K]{}
	}
	return t.ar
}

// ArenaStats reports the node allocator's path counters: slabs taken
// from the heap, nodes reused from the free list, and nodes recycled
// onto it. The counters cover this tree AND every tree split off from it
// (they share one arena). Tests use this to assert the arena paths are
// taken, mirroring the counter-guarded dispatch tests of package qsel.
func (t *Tree[K]) ArenaStats() ArenaStats {
	a := t.arena()
	return ArenaStats{Slabs: a.slabbed, Reused: a.reused, Recycled: a.recycled}
}

// Reseed restarts the priority stream from seed. The bulk-parallel
// priority queue's drain path uses this to keep its RNG consumption
// identical to discarding the tree and creating a fresh one, while the
// arena (and its recycled nodes) stays.
func (t *Tree[K]) Reseed(seed int64) {
	t.rng = xrand.New(seed)
}

// Len returns the number of keys stored.
func (t *Tree[K]) Len() int { return size(t.root) }

// split splits n at key into (a, b) where a holds the keys < key and b
// the rest. Iterative two-pass: the first walk counts how many keys fall
// on the a side (the boundary rank c); the second walk detaches nodes
// onto the two output spines via hook pointers, using c to write each
// node's final subtree size on the way down — a node kept on the a side
// retains exactly the c a-side keys of its old subtree, and descending
// right discards its left subtree and itself from that count, while a
// node on the b side loses exactly the c a-side keys below it. No
// recursion, no allocation, sizes exact without an unwind.
func split[K cmp.Ordered](n *node[K], key K) (a, b *node[K]) {
	c := 0
	for m := n; m != nil; {
		if m.key < key {
			c += size(m.left) + 1
			m = m.right
		} else {
			m = m.left
		}
	}
	ahook, bhook := &a, &b
	for n != nil {
		if n.key < key {
			n.size = c
			c -= size(n.left) + 1
			*ahook = n
			ahook = &n.right
			n = n.right
		} else {
			n.size -= c
			*bhook = n
			bhook = &n.left
			n = n.left
		}
	}
	*ahook = nil
	*bhook = nil
	return a, b
}

// merge concatenates two treaps assuming all keys in a < all keys in b.
// Iterative top-down: the winner by priority is stitched onto the output
// spine through a hook pointer and absorbs the loser's entire remaining
// subtree into its size (everything left of the other tree ends up below
// it), so sizes are final on the way down and no unwind pass is needed.
func merge[K cmp.Ordered](a, b *node[K]) *node[K] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var root *node[K]
	hook := &root
	for {
		if a.prio >= b.prio {
			a.size += b.size
			*hook = a
			if a.right == nil {
				a.right = b
				return root
			}
			hook = &a.right
			a = a.right
		} else {
			b.size += a.size
			*hook = b
			if b.left == nil {
				b.left = a
				return root
			}
			hook = &b.left
			b = b.left
		}
	}
}

// insert links the detached node nn, whose key root does not hold, into
// root and returns the new root. One descent: the walk counts the new key
// into every subtree it passes until it reaches the first node nn
// outranks, and only that subtree is split, under nn. That is the tree
// split + merge(merge(l, nn), r) builds — a treap's shape is a function
// of its (key, priority) set, and on a priority tie the node with the
// smaller key stays above, as merge has it.
func insert[K cmp.Ordered](root, nn *node[K]) *node[K] {
	hook := &root
	for n := *hook; n != nil && (n.prio > nn.prio || n.prio == nn.prio && n.key < nn.key); n = *hook {
		n.size++
		if nn.key < n.key {
			hook = &n.left
		} else {
			hook = &n.right
		}
	}
	if sub := *hook; sub != nil {
		nn.size += sub.size
		nn.left, nn.right = split(sub, nn.key)
	}
	*hook = nn
	return root
}

// Insert adds key to the tree. It returns false (and leaves the tree
// unchanged) if the key is already present.
func (t *Tree[K]) Insert(key K) bool {
	if t.Contains(key) {
		return false
	}
	nn := t.arena().newNode(key, t.rng.Uint64())
	wasEmpty := t.root == nil
	t.root = insert(t.root, nn)
	if wasEmpty {
		t.minK, t.maxK, t.extOK = key, key, true
	} else if t.extOK {
		if key < t.minK {
			t.minK = key
		}
		if key > t.maxK {
			t.maxK = key
		}
	}
	return true
}

// Delete removes key from the tree, reporting whether it was present.
// Presence is checked first (one O(log n) read-only walk), after which the
// deleting walk can decrement every size on the way down unconditionally
// and splice the node out through a hook pointer — no recursion, no
// closure, no unwind.
func (t *Tree[K]) Delete(key K) bool {
	if !t.Contains(key) {
		return false
	}
	hook := &t.root
	for {
		n := *hook
		switch {
		case key < n.key:
			n.size--
			hook = &n.left
		case key > n.key:
			n.size--
			hook = &n.right
		default:
			*hook = merge(n.left, n.right)
			if t.extOK && (key == t.minK || key == t.maxK) {
				t.extOK = false // extreme removed; recompute lazily
			}
			t.arena().freeNode(n)
			return true
		}
	}
}

// Contains reports whether key is present.
func (t *Tree[K]) Contains(key K) bool {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return true
		}
	}
	return false
}

// refreshExtremes rebuilds the min/max cache if stale. O(log n), after
// which Min/Max are O(1) until the next invalidating mutation.
func (t *Tree[K]) refreshExtremes() {
	if t.extOK || t.root == nil {
		return
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	t.minK = n.key
	n = t.root
	for n.right != nil {
		n = n.right
	}
	t.maxK = n.key
	t.extOK = true
}

// Min returns the smallest key; ok is false on an empty tree. O(1) when
// the cache is warm (Section 5 augmentation).
func (t *Tree[K]) Min() (k K, ok bool) {
	if t.root == nil {
		return k, false
	}
	t.refreshExtremes()
	return t.minK, true
}

// Max returns the largest key; ok is false on an empty tree. O(1) when
// the cache is warm.
func (t *Tree[K]) Max() (k K, ok bool) {
	if t.root == nil {
		return k, false
	}
	t.refreshExtremes()
	return t.maxK, true
}

// Select returns the i-th smallest key (0-based); ok is false if i is out
// of range. This is the paper's T[i] operation.
func (t *Tree[K]) Select(i int) (k K, ok bool) {
	if i < 0 || i >= t.Len() {
		return k, false
	}
	n := t.root
	for {
		ls := size(n.left)
		switch {
		case i < ls:
			n = n.left
		case i == ls:
			return n.key, true
		default:
			i -= ls + 1
			n = n.right
		}
	}
}

// Rank returns the number of keys strictly smaller than key. This matches
// the partitioning step of the selection algorithms; the paper's
// T.rank(x) (keys ≤ x) is Rank(x)+1 when x is present.
func (t *Tree[K]) Rank(key K) int {
	r := 0
	n := t.root
	for n != nil {
		if key <= n.key {
			n = n.left
		} else {
			r += size(n.left) + 1
			n = n.right
		}
	}
	return r
}

// SplitByRank removes and returns a new tree holding the i smallest keys;
// the receiver keeps the rest.
func (t *Tree[K]) SplitByRank(i int) *Tree[K] {
	return &Tree[K]{root: t.detachSmallest(i), rng: xrand.New(int64(t.rng.Uint64())), ar: t.arena()}
}

// PopSmallest removes the i smallest keys and appends them to dst in
// ascending order — SplitByRank(i), Keys and Recycle in one pass, without
// the split-off tree: the nodes go straight back to the arena, so dst's
// growth is the only allocation.
func (t *Tree[K]) PopSmallest(i int, dst []K) []K {
	t.arena().freeAll(t.detachSmallest(i), &dst)
	return dst
}

// detachSmallest removes the i smallest keys from the receiver and
// returns the subtree holding them.
func (t *Tree[K]) detachSmallest(i int) *node[K] {
	if i <= 0 {
		return nil
	}
	t.extOK = false
	if i >= t.Len() {
		l := t.root
		t.root = nil
		return l
	}
	// Iterative rank split: i threads down as "how many keys of the
	// current subtree go to the low side", so each node's final size is
	// known on the way down — a node sent high loses exactly i keys, a
	// node sent low keeps exactly i (its left subtree, itself, and the
	// i-ls-1 smallest of its right subtree).
	var l, r *node[K]
	lhook, rhook := &l, &r
	for n := t.root; n != nil; {
		if ls := size(n.left); i <= ls {
			n.size -= i
			*rhook = n
			rhook = &n.left
			n = n.left
		} else {
			n.size = i
			i -= ls + 1
			*lhook = n
			lhook = &n.right
			n = n.right
		}
	}
	*lhook = nil
	*rhook = nil
	t.root = r
	return l
}

// Recycle empties the tree and returns every node to the arena free
// list, where the next inserts into this tree — or into any tree sharing
// the arena, in particular the tree this one was split off from — will
// reuse them. This is how an extracted DeleteMin batch is disposed of
// after its keys are read out: the former behaviour of dropping the
// subtree on the floor fed every churn cycle's node count to the GC.
// O(n) with no allocation.
func (t *Tree[K]) Recycle() {
	t.arena().freeAll(t.root, nil)
	t.root = nil
	t.extOK = false
}

// freeAll returns every node of the detached subtree n to the free list,
// appending its key to *keys first unless keys is nil. It is an iterative
// right-rotation teardown: the spine stays reachable without a stack, and
// a node is freed once it has no left child — when it is the smallest
// left, so keys come out ascending.
func (a *arena[K]) freeAll(n *node[K], keys *[]K) {
	for n != nil {
		if l := n.left; l != nil {
			n.left = l.right
			l.right = n
			n = l
			continue
		}
		if keys != nil {
			*keys = append(*keys, n.key)
		}
		next := n.right
		a.freeNode(n)
		n = next
	}
}

// Concat appends other (all of whose keys must be greater than every key of
// the receiver) onto the receiver and empties other. This is the paper's
// concat(T1, T2). It panics if the key ranges overlap.
func (t *Tree[K]) Concat(other *Tree[K]) {
	if t.root != nil && other.root != nil {
		tm, _ := t.Max()
		om, _ := other.Min()
		if tm >= om {
			panic("treap: Concat with overlapping key ranges")
		}
	}
	t.root = merge(t.root, other.root)
	other.root = nil
	t.extOK = false
	other.extOK = false
}

// Ascend calls fn on every key in ascending order until fn returns false.
// Iterative in-order walk over an explicit stack; the fixed array covers
// any depth a randomized treap reaches in practice (expected depth is
// ~2.9 log₂ n, so 96 frames handle astronomically large trees), and the
// append fallback keeps deeper trees correct rather than crashing.
func (t *Tree[K]) Ascend(fn func(key K) bool) {
	var arr [96]*node[K]
	stack := arr[:0]
	n := t.root
	for n != nil || len(stack) > 0 {
		for n != nil {
			stack = append(stack, n)
			n = n.left
		}
		n = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(n.key) {
			return
		}
		n = n.right
	}
}

// Keys returns all keys in ascending order (for tests and extraction).
func (t *Tree[K]) Keys() []K {
	out := make([]K, 0, t.Len())
	t.Ascend(func(k K) bool {
		out = append(out, k)
		return true
	})
	return out
}

// InsertBulk inserts all keys, skipping duplicates, and returns how many
// were inserted. A strictly ascending batch whose first key exceeds the
// current maximum (the monotone re-insertion pattern of the bulk priority
// queue) is built in O(len(keys)) by buildAscending and joined on with
// one merge, skipping the per-key descent; any other batch falls back to
// per-key Insert. Both paths draw one priority per inserted key in key
// order and a treap's shape is a function of its (key, priority) set
// alone, so the fast path produces the bit-identical tree.
func (t *Tree[K]) InsertBulk(keys []K) int {
	if len(keys) > 1 && ascending(keys) {
		if mx, ok := t.Max(); !ok || keys[0] > mx {
			sub := t.buildAscending(keys)
			t.root = merge(t.root, sub)
			if !ok {
				t.minK, t.extOK = keys[0], true
			}
			if t.extOK {
				t.maxK = keys[len(keys)-1]
			}
			return len(keys)
		}
	}
	n := 0
	for _, k := range keys {
		if t.Insert(k) {
			n++
		}
	}
	return n
}

// ascending reports whether keys is strictly ascending.
func ascending[K cmp.Ordered](keys []K) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return false
		}
	}
	return true
}

// BuildSorted fills an empty tree from a strictly ascending batch in
// O(len(keys)) — the DeleteMin extraction inverse: a batch read out with
// Keys can be rebuilt without len·log(len) per-key descents. Draws one
// priority per key in key order (exactly the stream per-key Insert would
// consume), so the result is bit-identical to inserting the keys one by
// one. Panics if the tree is not empty or keys are not strictly
// ascending.
func (t *Tree[K]) BuildSorted(keys []K) {
	if t.root != nil {
		panic("treap: BuildSorted on a non-empty tree")
	}
	if len(keys) == 0 {
		return
	}
	t.root = t.buildAscending(keys)
	t.minK, t.maxK, t.extOK = keys[0], keys[len(keys)-1], true
}

// buildAscending builds a treap over the strictly ascending keys with
// one left-to-right pass over the right spine (the Cartesian-tree
// construction): each new node pops the spine suffix of lower priority
// as its left subtree. A popped node's subtree is final, so its size is
// written then; nodes still on the spine at the end extend to the last
// key. The size field doubles as the node's leftmost key index while the
// node is open (every open node sits on the spine with its final size
// not yet known). Panics on a non-ascending pair. O(len(keys)) time, no
// allocation beyond the arena slabs.
func (t *Tree[K]) buildAscending(keys []K) *node[K] {
	a := t.arena()
	var arr [96]*node[K]
	spine := arr[:0] // right spine, root first, priorities non-increasing
	for i, k := range keys {
		if i > 0 && k <= keys[i-1] {
			panic("treap: bulk build needs strictly ascending keys")
		}
		nn := a.newNode(k, t.rng.Uint64())
		nn.size = i // leftmost index while open
		var popped *node[K]
		for len(spine) > 0 && spine[len(spine)-1].prio < nn.prio {
			popped = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
			lo := popped.size
			popped.size = i - lo // subtree is [lo, i-1], now final
			nn.size = lo         // nn inherits the popped chain's leftmost index
		}
		nn.left = popped
		if len(spine) > 0 {
			spine[len(spine)-1].right = nn
		}
		spine = append(spine, nn)
	}
	n := len(keys)
	for _, m := range spine {
		m.size = n - m.size // open subtrees extend to the last key
	}
	return spine[0]
}
