package wire

import (
	"fmt"
	"sync"

	"commtopk/internal/comm"
)

// Program registry. Closures cannot cross a process boundary, so a wire
// cluster runs *named* programs: every participating binary registers
// the same programs (by importing the same registration package — see
// wireprogs), the leader's start frame carries the name plus parameter
// words, and each process looks the name up locally. A program returns
// one result word per PE; the words travel back in the done frame, out
// of band, so they add no in-band traffic and the meters stay directly
// comparable to an in-process run.

// Prog is one registered SPMD program: the body run on every PE, with
// the run's parameter words, returning this PE's result word.
type Prog func(pe *comm.PE, args []uint64) uint64

var progs struct {
	sync.RWMutex
	m map[string]Prog
}

// RegisterProg registers a named program. Re-registering a name panics
// (two different programs under one name would desynchronize processes).
func RegisterProg(name string, p Prog) {
	progs.Lock()
	defer progs.Unlock()
	if progs.m == nil {
		progs.m = make(map[string]Prog)
	}
	if _, dup := progs.m[name]; dup {
		panic(fmt.Sprintf("wire: program %q registered twice", name))
	}
	progs.m[name] = p
}

func lookupProg(name string) Prog {
	progs.RLock()
	defer progs.RUnlock()
	return progs.m[name]
}

// RunLocal runs a registered program on a single-process mailbox machine
// with the same shape (p, α, β, seed) as a cluster built from cfg — the
// in-process twin the differential suite compares a wire run against,
// and the modeled-clock reference for the measured-vs-modeled
// experiment family.
func RunLocal(cfg Config, prog string, args []uint64) ([]uint64, comm.Stats, error) {
	pr := lookupProg(prog)
	if pr == nil {
		return nil, comm.Stats{}, fmt.Errorf("wire: program %q not registered", prog)
	}
	m := comm.NewMachine(comm.Config{
		P: cfg.P, Alpha: cfg.alphaOrDefault(), Beta: cfg.betaOrDefault(),
		Seed: cfg.Seed,
	})
	defer m.Close()
	results := make([]uint64, cfg.P)
	err := m.Run(func(pe *comm.PE) {
		results[pe.Rank()] = pr(pe, args)
	})
	return results, m.Stats(), err
}
