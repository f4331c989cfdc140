package coll

import (
	"fmt"
	"testing"

	"commtopk/internal/comm"
)

// BenchmarkAllGatherConcatPayload measures the all-gather across block
// sizes — the final-round reference-share hybrid's win grows with the
// payload (at 1-word blocks per-message overhead dominates; at KB-scale
// blocks the saved copy of half the total is the bulk of host time).
func BenchmarkAllGatherConcatPayload(b *testing.B) {
	for _, words := range []int{1, 256, 4096} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			m := comm.NewMachine(comm.DefaultConfig(64))
			defer m.Close()
			data := make([]int64, words)
			m.MustRun(func(pe *comm.PE) {}) // warm scheduler
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MustRun(func(pe *comm.PE) { AllGatherConcat(pe, data) })
			}
		})
	}
}
