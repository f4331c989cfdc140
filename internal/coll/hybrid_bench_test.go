package coll

import (
	"fmt"
	"testing"

	"commtopk/internal/comm"
)

// BenchmarkAllGatherConcatPayload measures the all-gather across block
// sizes: at 1-word blocks per-message overhead dominates, at KB-scale
// blocks the per-round copies.
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
