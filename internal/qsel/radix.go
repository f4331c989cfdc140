package qsel

// SortPairs sorts the pairs (keys[i], vals[i]) by key, ascending, with a
// stable least-significant-digit radix sort: pairs with equal keys keep
// their input order. It is the one sorting engine of the local kernels
// that need a sorted order of 64-bit keys with a payload (per-key
// aggregation in internal/agg, the score lists in internal/mtopk).
//
// One pass ORs k ^ keys[0] over the input, so a byte position on which
// every key agrees costs no pass; each other byte costs a counting pass
// over 256 buckets and a scatter pass. keys and vals are only read: the
// first scatter reads them, and the passes then alternate between the
// buffers (ka, va) and (kb, vb), each at least len(keys) long. SortPairs
// returns the buffer pair that holds the sorted pairs, resliced to
// len(keys); a copy is made only when no pass runs. It allocates nothing.
func SortPairs[V any](keys []uint64, vals []V, ka []uint64, va []V, kb []uint64, vb []V) ([]uint64, []V) {
	n := len(keys)
	if len(vals) != n || len(ka) < n || len(va) < n || len(kb) < n || len(vb) < n {
		panic("qsel: SortPairs buffers shorter than the input")
	}
	ka, va, kb, vb = ka[:n], va[:n], kb[:n], vb[:n]
	var diff uint64
	if n > 0 {
		k0 := keys[0]
		for _, k := range keys {
			diff |= k ^ k0
		}
	}
	sk, sv := keys, vals             // this pass's source
	dk, dv, ek, ev := ka, va, kb, vb // its destination, then the next one's
	var offs [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		clear(offs[:])
		for _, k := range sk {
			offs[(k>>shift)&0xff]++
		}
		sum := 0
		for b, c := range offs {
			offs[b] = sum
			sum += c
		}
		for i, k := range sk {
			b := (k >> shift) & 0xff
			j := offs[b]
			offs[b] = j + 1
			dk[j] = k
			dv[j] = sv[i]
		}
		sk, sv = dk, dv
		dk, dv, ek, ev = ek, ev, dk, dv
	}
	if diff == 0 {
		copy(ka, keys)
		copy(va, vals)
		return ka, va
	}
	return sk, sv
}
