package dht

import (
	"reflect"
	"testing"
)

func TestTableBasicAndGrowth(t *testing.T) {
	tb := NewTable(0)
	defer tb.Release()
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		tb.Add(i, int64(i%7)+1)
		tb.Add(i, 1) // every key incremented twice
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	var wantTotal int64
	for i := uint64(0); i < n; i++ {
		want := int64(i%7) + 2
		wantTotal += want
		if got, ok := tb.Get(i); !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v want %d", i, got, ok, want)
		}
	}
	if tb.Total() != wantTotal {
		t.Errorf("Total = %d, want %d", tb.Total(), wantTotal)
	}
	if _, ok := tb.Get(n + 1); ok {
		t.Error("absent key reported present")
	}
}

func TestTableSet(t *testing.T) {
	tb := NewTable(4)
	defer tb.Release()
	tb.Set(7, 5)
	tb.Set(7, 3)
	tb.Add(9, 2)
	if got, _ := tb.Get(7); got != 3 {
		t.Errorf("Set did not replace: %d", got)
	}
	if tb.Total() != 5 {
		t.Errorf("Total after Set = %d, want 5", tb.Total())
	}
}

func TestTableIterationDeterministic(t *testing.T) {
	build := func() []KV {
		tb := NewTable(0)
		defer tb.Release()
		for i := 0; i < 500; i++ {
			tb.Add(uint64(i*2654435761)%1000, 1)
		}
		var kvs []KV
		tb.ForEach(func(k uint64, c int64) { kvs = append(kvs, KV{k, c}) })
		return kvs
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical insertion sequences iterated in different orders")
	}
	if len(a) == 0 {
		t.Fatal("empty iteration")
	}
}

func TestTableReleaseReuse(t *testing.T) {
	tb := NewTable(8)
	tb.Add(2, 5)
	tb.Release()
	if tb.Len() != 0 || tb.Total() != 0 {
		t.Fatalf("Release left %d/%d", tb.Len(), tb.Total())
	}
	// A released table must be usable again.
	tb.Add(3, 7)
	if got, ok := tb.Get(3); !ok || got != 7 {
		t.Errorf("post-Release Get = %d,%v", got, ok)
	}
	if _, ok := tb.Get(2); ok {
		t.Error("Release kept a key")
	}
	tb.Release()
}

// TestTableSteadyStateAllocs pins the satellite claim: a released table's
// slots come back from the pool, so repeated query-sized fills allocate
// (amortized) nothing.
func TestTableSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	warm := func() {
		tb := NewTable(0)
		for i := uint64(0); i < 2048; i++ {
			tb.Add(i*0x9e3779b9, 1)
		}
		tb.Release()
	}
	warm()
	allocs := testing.AllocsPerRun(20, warm)
	// One alloc for the Table header itself; the slot slabs must recycle.
	if allocs > 2 {
		t.Errorf("steady-state table fill allocates %.1f times, want ≤ 2", allocs)
	}
}

func TestSumTableBasics(t *testing.T) {
	s := NewSumTable(4)
	s.Add(10, 1.5)
	s.Add(11, 2.0)
	s.Add(10, 0.25)
	if got, ok := s.Get(10); !ok || got != 1.75 {
		t.Errorf("Get(10) = %v, %v", got, ok)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Total() != 3.75 {
		t.Errorf("Total = %v", s.Total())
	}
	s.Set(11, 1.0)
	if s.Total() != 2.75 {
		t.Errorf("Total after Set = %v", s.Total())
	}
	s.Release()
	if _, ok := s.Get(10); ok {
		t.Error("released table still holds keys")
	}
	s.Add(3, 1) // released table must be usable again
	if got, _ := s.Get(3); got != 1 {
		t.Errorf("post-release Add lost value: %v", got)
	}
}

func TestTableGrowPreservesSumValues(t *testing.T) {
	s := NewSumTable(0)
	const n = 1000
	for i := 0; i < n; i++ {
		s.Add(uint64(i*2654435761), float64(i)/8)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < n; i++ {
		if got, ok := s.Get(uint64(i * 2654435761)); !ok || got != float64(i)/8 {
			t.Fatalf("key %d: got %v ok=%v", i, got, ok)
		}
	}
}
