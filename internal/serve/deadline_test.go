package serve

import (
	"errors"
	"testing"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/xrand"
)

// TestDeadlineExpiredAtSubmit: a deadline already in the past is shed
// synchronously with the distinct error — no ticket, no queue slot.
func TestDeadlineExpiredAtSubmit(t *testing.T) {
	const p = 4
	shards, _ := mkShards(p, 5)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	s, err := NewServer(m, shards, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	past := time.Now().Add(-time.Second)
	if tk, err := s.KthDeadline(1, past); !errors.Is(err, ErrDeadlineExpired) || tk != nil {
		t.Fatalf("KthDeadline(past) = %v, %v; want nil, ErrDeadlineExpired", tk, err)
	}
	if tk, err := s.DeleteMinDeadline(3, past); !errors.Is(err, ErrDeadlineExpired) || tk != nil {
		t.Fatalf("DeleteMinDeadline(past) = %v, %v; want nil, ErrDeadlineExpired", tk, err)
	}
	// A zero deadline means none: the plain path still works.
	tk, err := s.KthDeadline(1, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatalf("KthDeadline(future): %v", err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestDeadlineExpiredWhileQueued: with MaxInflight=1 and a long query
// holding the sole lease, a short-deadline query ages out in the queue
// and is shed — with the distinct error, before occupying a context
// lease — when the dispatcher reaches it.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	const p = 4
	// Big shards make the blocker query take real wall time (tens of ms),
	// dwarfing the follower's deadline.
	rng := xrand.New(9)
	shards := make([][]uint64, p)
	var n int64
	for i := range shards {
		sh := make([]uint64, 1<<19)
		for j := range sh {
			sh[j] = rng.Uint64()
		}
		shards[i] = sh
		n += int64(len(sh))
	}
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	s, err := NewServer(m, shards, Config{Seed: 2, MaxInflight: 1, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	blocker, err := s.Kth(n / 2)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.KthDeadline(n/3, time.Now().Add(time.Millisecond))
	if err != nil {
		// The dispatcher cannot have drained the blocker yet, so the only
		// legal submit-time failure is a deadline that lapsed before
		// submit's own clock check.
		if !errors.Is(err, ErrDeadlineExpired) {
			t.Fatalf("KthDeadline: %v", err)
		}
		return
	}
	if _, werr := tk.Wait(); !errors.Is(werr, ErrDeadlineExpired) {
		t.Fatalf("queued query Wait = %v; want ErrDeadlineExpired", werr)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	// The shed query's lease was never taken: the server still serves.
	after, err := s.Kth(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := after.Wait(); err != nil {
		t.Fatalf("post-shed query: %v", err)
	}
}
