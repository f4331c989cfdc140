package dht

import (
	"bytes"
	"slices"
	"testing"

	"commtopk/internal/xrand"
)

// FuzzSumRuns checks the run engine against a map oracle. Each input
// element is two bytes: a key byte, placed at byte position shift%8 of
// the key over a fixed pattern (so keys differ in one byte only, the top
// one at shift 7), and a signed count. SumKVs's runs must hold every key
// once, strictly ascending, with the oracle's per-key sums and total,
// and summing runs again must change nothing; CountRuns over the keys
// alone must give each key's number of occurrences.
func FuzzSumRuns(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{7, 3}, uint8(0))
	f.Add([]byte{9, 1, 9, 2, 9, 255, 9, 4}, uint8(0))
	f.Add([]byte{1, 1, 2, 1, 1, 1, 3, 5, 2, 9, 255, 128}, uint8(7))
	f.Add(bytes.Repeat([]byte{1, 1, 2, 2, 3, 3, 1, 4}, 64), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		const pattern = 0x0123456789abcdef
		kvs := make([]KV, len(data)/2)
		keys := make([]uint64, len(kvs))
		oracle, occurs := map[uint64]int64{}, map[uint64]int64{}
		var total int64
		for i := range kvs {
			keys[i] = uint64(data[2*i])<<(shift%8*8) ^ pattern
			kvs[i] = KV{keys[i], int64(int8(data[2*i+1]))}
			oracle[keys[i]] += kvs[i].Count
			occurs[keys[i]]++
			total += kvs[i].Count
		}
		counted := CountRuns(keys, nil)
		if !isRuns(counted) || len(counted) != len(occurs) {
			t.Fatalf("CountRuns gave %v for %d distinct keys", counted, len(occurs))
		}
		for _, kv := range counted {
			if kv.Count != occurs[kv.Key] {
				t.Fatalf("key %#x counted %d times, oracle %d", kv.Key, kv.Count, occurs[kv.Key])
			}
		}
		runs := SumKVs(kvs)
		if !isRuns(runs) {
			t.Fatalf("keys not strictly ascending: %v", runs)
		}
		if len(runs) != len(oracle) {
			t.Fatalf("%d runs for %d distinct keys", len(runs), len(oracle))
		}
		var got int64
		for _, kv := range runs {
			if kv.Count != oracle[kv.Key] {
				t.Fatalf("key %#x sums to %d, oracle %d", kv.Key, kv.Count, oracle[kv.Key])
			}
			got += kv.Count
		}
		if got != total {
			t.Fatalf("total %d, oracle %d", got, total)
		}
		again := SumKVs(slices.Clone(runs))
		if !slices.Equal(again, runs) {
			t.Fatalf("summing runs again changed them: %v → %v", runs, again)
		}
	})
}

// TestRunEngineZeroAlloc: on a warm pool, building runs from unsorted
// counts (SumKVs) or keys (CountRuns into a sized dst) reuses the
// engine's scratch (the guard allows two allocations each).
func TestRunEngineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is randomized under -race")
	}
	rng := xrand.New(5)
	in := make([]KV, 1<<12)
	keys := make([]uint64, len(in))
	for i := range in {
		keys[i] = uint64(rng.Intn(1 << 10))
		in[i] = KV{keys[i], 1}
	}
	buf := make([]KV, len(in))
	SumKVs(append(buf[:0], in...))
	if n := testing.AllocsPerRun(100, func() {
		SumKVs(append(buf[:0], in...))
	}); n > 2 {
		t.Errorf("SumKVs: %v allocs/op, want ≤ 2", n)
	}
	dst := CountRuns(keys, nil)
	if n := testing.AllocsPerRun(100, func() {
		dst = CountRuns(keys, dst)
	}); n > 2 {
		t.Errorf("CountRuns: %v allocs/op, want ≤ 2", n)
	}
}
