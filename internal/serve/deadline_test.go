package serve

import (
	"errors"
	"testing"
	"time"

	"commtopk/internal/comm"
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

// TestDeadlineExpiredWhileQueued: with MaxInflight=1 and the sole lease
// held, a short-deadline query ages out in the queue and is shed — with
// the distinct error, before occupying a context lease — when the
// dispatcher reaches it. The test holds the lease token itself, so the
// follower stays queued exactly until its deadline has passed however
// fast a query is served.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	const p = 4
	shards, _ := mkShards(p, 9)
	m := comm.NewMachine(comm.DefaultConfig(p))
	defer m.Close()
	s, err := NewServer(m, shards, Config{Seed: 2, MaxInflight: 1, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.sem <- struct{}{} // occupy the single lease
	deadline := time.Now().Add(5 * time.Millisecond)
	tk, err := s.KthDeadline(s.n/3, deadline)
	if err != nil {
		// The only legal submit-time failure is a deadline that lapsed
		// before submit's own clock check (a stalled host).
		<-s.sem
		if !errors.Is(err, ErrDeadlineExpired) {
			t.Fatalf("KthDeadline: %v", err)
		}
		return
	}
	select {
	case <-tk.done:
		t.Fatalf("query completed (err %v) while the only lease was held", tk.err)
	case <-time.After(time.Until(deadline) + time.Millisecond):
	}
	<-s.sem // release: the dispatcher's re-check on the way out sheds it
	if _, werr := tk.Wait(); !errors.Is(werr, ErrDeadlineExpired) {
		t.Fatalf("queued query Wait = %v; want ErrDeadlineExpired", werr)
	}
	if w, sd := tk.Meters(); w != 0 || sd != 0 {
		t.Fatalf("shed query metered %d words, %d sends; it must never reach a PE", w, sd)
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
