package comm_test

import (
	"testing"
	"time"

	. "commtopk/internal/comm"
)

func TestAccessors(t *testing.T) {
	m := NewMachine(Config{P: 3, Alpha: 7, Beta: 2, Seed: 5})
	if m.P() != 3 {
		t.Errorf("Machine.P = %d", m.P())
	}
	if c := m.Config(); c.Alpha != 7 || c.Beta != 2 {
		t.Errorf("Config = %+v", c)
	}
	m.MustRun(func(pe *PE) {
		if pe.P() != 3 {
			t.Errorf("PE.P = %d", pe.P())
		}
		if pe.Alpha() != 7 || pe.Beta() != 2 {
			t.Errorf("costs = %v/%v", pe.Alpha(), pe.Beta())
		}
		if pe.Rank() == 0 {
			pe.Send(1, 1, nil, 10)
			if pe.Clock() != 7+2*10 {
				t.Errorf("Clock = %v", pe.Clock())
			}
			if pe.SentWords() != 10 || pe.Sends() != 1 {
				t.Errorf("sent counters %d/%d", pe.SentWords(), pe.Sends())
			}
		}
		if pe.Rank() == 1 {
			pe.Recv(0, 1)
			if pe.RecvWords() != 10 {
				t.Errorf("RecvWords = %d", pe.RecvWords())
			}
		}
	})
	s := m.Stats()
	if s.BottleneckWords() != 10 {
		t.Errorf("BottleneckWords = %d", s.BottleneckWords())
	}
}

func TestCollTagSequenceSynchronized(t *testing.T) {
	m := NewMachine(DefaultConfig(4))
	tags := make([][]Tag, 4)
	m.MustRun(func(pe *PE) {
		for i := 0; i < 5; i++ {
			tags[pe.Rank()] = append(tags[pe.Rank()], pe.NextCollTag())
		}
	})
	for r := 1; r < 4; r++ {
		for i := range tags[0] {
			if tags[r][i] != tags[0][i] {
				t.Fatalf("tag sequences diverge at PE %d step %d", r, i)
			}
		}
	}
	// Tags keep advancing across runs (no reuse).
	m.MustRun(func(pe *PE) {
		if next := pe.NextCollTag(); next <= tags[pe.Rank()][4] {
			t.Errorf("tag %d did not advance past %d", next, tags[pe.Rank()][4])
		}
	})
}

func TestWaitTimeAccumulates(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	m.MustRun(func(pe *PE) {
		if pe.Rank() == 1 {
			time.Sleep(20 * time.Millisecond)
			pe.Send(0, 3, nil, 0)
			return
		}
		pe.Recv(1, 3)
		if pe.WaitTime() < 10*time.Millisecond {
			t.Errorf("WaitTime %v; expected to include the blocking recv", pe.WaitTime())
		}
	})
}

func TestReceiverPaysTransferTime(t *testing.T) {
	// A coordinator draining p−1 messages must pay Θ(p·(α+βm)) modeled
	// time even though all senders transmit concurrently.
	const p = 9
	m := NewMachine(Config{P: p, Alpha: 1, Beta: 0})
	m.MustRun(func(pe *PE) {
		const tag Tag = 4
		if pe.Rank() == 0 {
			for src := 1; src < p; src++ {
				pe.Recv(src, tag)
			}
		} else {
			pe.Send(0, tag, nil, 0)
		}
	})
	if got := m.Stats().MaxClock; got < float64(p-1) {
		t.Errorf("coordinator clock %v, want >= %d (serialized receives)", got, p-1)
	}
}

func TestMustRunPanicsOnError(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Error("MustRun should panic on PE failure")
		}
	}()
	m.MustRun(func(pe *PE) {
		if pe.Rank() == 0 {
			panic("kaboom")
		}
		pe.Recv(0, 9)
	})
}

func TestSendToInvalidRank(t *testing.T) {
	m := NewMachine(DefaultConfig(2))
	if err := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Send(5, 1, nil, 0)
		}
	}); err == nil {
		t.Error("send to rank 5 of 2 should fail")
	}
	if err := m.Run(func(pe *PE) {
		if pe.Rank() == 0 {
			pe.Recv(-1, 1)
		}
	}); err == nil {
		t.Error("recv from rank -1 should fail")
	}
}
