package serve

import (
	"slices"
	"sync"
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// mkShards builds p deterministic shards of varying length and returns
// them with the sorted union (the rank oracle).
func mkShards(p int, seed int64) (shards [][]uint64, sorted []uint64) {
	rng := xrand.New(seed)
	shards = make([][]uint64, p)
	for i := range shards {
		n := 200 + i*37%150
		sh := make([]uint64, n)
		for j := range sh {
			sh[j] = rng.Uint64() % 10000
		}
		shards[i] = sh
		sorted = append(sorted, sh...)
	}
	slices.Sort(sorted)
	return shards, sorted
}

// TestServeBasic pins the end-to-end path on a production machine:
// submitted rank queries come back with the exact order statistic, and
// Close drains cleanly.
func TestServeBasic(t *testing.T) {
	const p = 8
	shards, sorted := mkShards(p, 3)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	s, err := NewServer(m, shards, Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	ranks := []int64{1, 7, int64(len(sorted) / 2), int64(len(sorted))}
	var tickets []*Ticket[uint64]
	for _, k := range ranks {
		tk, err := s.Kth(k)
		if err != nil {
			t.Fatalf("Kth(%d): %v", k, err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		got, err := tk.Wait()
		if err != nil {
			t.Fatalf("rank %d: %v", ranks[i], err)
		}
		if want := sorted[ranks[i]-1]; got != want {
			t.Errorf("rank %d: got %d want %d", ranks[i], got, want)
		}
		if w, sd := tk.Meters(); w <= 0 || sd <= 0 {
			t.Errorf("rank %d: empty meters (%d words, %d sends)", ranks[i], w, sd)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The machine is reusable after the server retires.
	m.MustRun(func(pe *comm.PE) {})
}

// TestServeRankValidationAndOverload pins the admission edge cases:
// out-of-range ranks are rejected before touching the queue, a full
// queue sheds with ErrOverloaded, submissions after Close fail with
// ErrClosed, and a queued query can be canceled.
func TestServeRankValidationAndOverload(t *testing.T) {
	const p = 4
	shards, _ := mkShards(p, 5)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	s, err := NewServer(m, shards, Config{QueueDepth: 1, MaxInflight: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Kth(0); err == nil {
		t.Error("rank 0 admitted")
	}
	if _, err := s.Kth(n + 1); err == nil {
		t.Error("rank n+1 admitted")
	}
	// Saturate: with depth 1 and inflight 1, repeated submission must
	// eventually shed. (The dispatcher may drain a few promptly.)
	var tickets []*Ticket[uint64]
	overloaded := false
	for i := 0; i < 1000 && !overloaded; i++ {
		tk, err := s.Kth(1 + int64(i)%n)
		switch err {
		case nil:
			tickets = append(tickets, tk)
		case ErrOverloaded:
			overloaded = true
		default:
			t.Fatalf("unexpected admission error: %v", err)
		}
	}
	if !overloaded {
		t.Error("bounded queue never shed load")
	}
	// Cancel the youngest queued ticket; canceled-while-queued must
	// surface ErrCanceled from Wait.
	last := tickets[len(tickets)-1]
	if last.Cancel() {
		if _, err := last.Wait(); err != ErrCanceled {
			t.Errorf("canceled query: Wait err = %v", err)
		}
		tickets = tickets[:len(tickets)-1]
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil && err != ErrCanceled {
			t.Fatalf("Wait: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Kth(1); err != ErrClosed {
		t.Errorf("post-Close submit err = %v", err)
	}
}

// TestServeConcurrentStress is the -race job: many goroutines submit
// against one server at full inflight depth while results are verified
// against the oracle. Exercises keyed demux, context leasing, ArmKeys
// suspension, and completion accounting under real contention.
func TestServeConcurrentStress(t *testing.T) {
	const p, submitters, each = 16, 8, 25
	shards, sorted := mkShards(p, 11)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	s, err := NewServer(m, shards, Config{QueueDepth: submitters * each, MaxInflight: 8, BatchMax: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(sorted))
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(int64(100 + g))
			for i := 0; i < each; i++ {
				k := 1 + int64(rng.Uint64()%uint64(n))
				tk, err := s.Kth(k)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				got, err := tk.Wait()
				if err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				if want := sorted[k-1]; got != want {
					t.Errorf("rank %d: got %d want %d", k, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
