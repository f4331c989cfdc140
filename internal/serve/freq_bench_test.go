package serve

import (
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/gen"
	"commtopk/internal/xrand"
)

// BenchmarkServeTopKFreq times one solo TopKFreq(8) query, submit to
// Wait, on a uint64 server over Zipf(1) keys from a universe of 2^16, at
// a fat shape (p = 16, n/p = 2^16) where sampling and counting dominate
// and a thin one (p = 64, n/p = 2^8) where the collectives do:
//
//	go test -run '^$' -bench ServeTopKFreq -benchtime 200x ./internal/serve/
func BenchmarkServeTopKFreq(b *testing.B) {
	for _, sh := range []struct {
		name     string
		p, perPE int
	}{{"p=16,n_p=2^16", 16, 1 << 16}, {"p=64,n_p=2^8", 64, 1 << 8}} {
		b.Run(sh.name, func(b *testing.B) {
			z := gen.NewZipf(1<<16, 1)
			shards := make([][]uint64, sh.p)
			for r := range shards {
				shards[r] = gen.FrequencyInput(xrand.NewPE(5, r), z, sh.perPE)
			}
			m := comm.NewMachine(comm.DefaultConfig(sh.p))
			defer m.Close()
			s, err := NewServer(m, shards, Config{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := s.TopKFreq(8)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := t.Wait(); err != nil {
					b.Fatal(err)
				}
				if len(t.Items()) != 8 {
					b.Fatalf("TopKFreq(8) returned %d items", len(t.Items()))
				}
			}
		})
	}
}
