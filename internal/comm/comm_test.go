package comm_test

import (
	"strings"
	"testing"

	. "commtopk/internal/comm"
	"commtopk/internal/simexec"
)

func TestMachineBasicSendRecv(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	err := m.Run(func(pe *PE) {
		const tag Tag = 7
		if pe.Rank() == 0 {
			pe.Send(1, tag, []int64{1, 2, 3}, 3)
		} else {
			data, words := pe.Recv(0, tag)
			got := data.([]int64)
			if words != 3 || len(got) != 3 || got[2] != 3 {
				t.Errorf("recv got %v (%d words)", got, words)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMachineCounters(t *testing.T) {
	m := NewMachine(Config{P: 2, Alpha: 10, Beta: 2, Seed: 1})
	m.MustRun(func(pe *PE) {
		const tag Tag = 1
		if pe.Rank() == 0 {
			pe.Send(1, tag, []int64{1, 2, 3, 4, 5}, 5)
		} else {
			pe.Recv(0, tag)
		}
	})
	s := m.Stats()
	if s.TotalWords != 5 {
		t.Errorf("TotalWords = %d, want 5", s.TotalWords)
	}
	if s.MaxSentWords != 5 || s.MaxRecvWords != 5 {
		t.Errorf("bottleneck words = %d/%d, want 5/5", s.MaxSentWords, s.MaxRecvWords)
	}
	if s.TotalSends != 1 || s.MaxSends != 1 {
		t.Errorf("sends = %d/%d, want 1/1", s.TotalSends, s.MaxSends)
	}
	// Modeled clock: sender pays alpha + 5*beta = 20; receiver inherits it.
	if s.MaxClock != 20 {
		t.Errorf("MaxClock = %v, want 20", s.MaxClock)
	}
}

func TestVirtualClockCriticalPath(t *testing.T) {
	// A 3-hop relay: clock should accumulate along the chain, not in parallel.
	m := NewMachine(Config{P: 4, Alpha: 1, Beta: 0})
	m.MustRun(func(pe *PE) {
		const tag Tag = 2
		switch pe.Rank() {
		case 0:
			pe.Send(1, tag, nil, 0)
		case 1:
			pe.Recv(0, tag)
			pe.Send(2, tag, nil, 0)
		case 2:
			pe.Recv(1, tag)
			pe.Send(3, tag, nil, 0)
		case 3:
			pe.Recv(2, tag)
		}
	})
	if got := m.Stats().MaxClock; got != 3 {
		t.Errorf("critical path clock = %v, want 3 (three sequential startups)", got)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	m := NewMachine(DefaultConfig(4))
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 2 {
			panic("boom")
		}
		// Other PEs block forever on a message that never comes; the abort
		// must release them.
		pe.Recv((pe.Rank()+1)%4, 99)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic propagation, got %v", err)
	}
	// The machine must be reusable after an abort.
	if err := m.Run(func(pe *PE) {}); err != nil {
		t.Fatalf("machine not reusable after abort: %v", err)
	}
}

func TestTagMismatchDetected(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 5, nil, 0)
		} else {
			pe.Recv(0, 6)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("expected tag mismatch error, got %v", err)
	}
}

func TestSelfSendPanics(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	err := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(0, 1, nil, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "self-send") {
		t.Fatalf("expected self-send panic, got %v", err)
	}
}

func TestResetStats(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	m.MustRun(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(1, 1, nil, 4)
		} else {
			pe.Recv(0, 1)
		}
	})
	m.ResetStats()
	s := m.Stats()
	if s.TotalWords != 0 || s.MaxClock != 0 || s.TotalSends != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

func TestSendRecvExchange(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	m.MustRun(func(pe *PE) {
		partner := 1 - pe.Rank()
		rx, _ := pe.SendRecv(partner, []int{pe.Rank()}, 1, partner, 3)
		if got := rx.([]int)[0]; got != partner {
			t.Errorf("PE %d exchanged got %d, want %d", pe.Rank(), got, partner)
		}
	})
}

func TestInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine(P=0) should panic")
		}
	}()
	NewMachine(Config{P: 0})
}

func TestManyPEsAllExchange(t *testing.T) {
	// A dense exchange of blocking bodies carried by the reference
	// executor (the production twin lives in backend_test.go).
	const p = 16
	m := simexec.Reference(p)
	defer m.Close()
	m.MustRun(func(pe *PE) {
		const tag Tag = 11
		for i := 1; i < p; i++ {
			dst := (pe.Rank() + i) % p
			pe.Send(dst, tag, pe.Rank(), 1)
		}
		sum := 0
		for i := 1; i < p; i++ {
			src := (pe.Rank() - i + p) % p
			rx, _ := pe.Recv(src, tag)
			sum += rx.(int)
		}
		want := p*(p-1)/2 - pe.Rank()
		if sum != want {
			t.Errorf("PE %d: sum=%d want %d", pe.Rank(), sum, want)
		}
	})
}
