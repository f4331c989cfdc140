package coll

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"commtopk/internal/comm"
)

// raggedBlock builds rank r's deterministic, uneven contribution.
func raggedBlock(r, seed int) []int64 {
	out := make([]int64, (r+seed)%5)
	for i := range out {
		out[i] = int64(seed*1000 + r*10 + i)
	}
	return out
}

// TestAllGatherChunkedMatchesAllGatherv pins the streaming all-gather
// against the materializing reference: every rank's block delivered
// exactly once, with the right contents, for ragged inputs, power and
// non-power p, and chunk sizes from the pure ring (1) through a single
// group (≥ p) — on both executors.
func TestAllGatherChunkedMatchesAllGatherv(t *testing.T) {
	for _, rig := range bothRigs {
		for _, p := range []int{1, 2, 4, 6, 7, 16} {
			for _, chunk := range []int{1, 2, 3, 64} {
				name := fmt.Sprintf("%s/p=%d/chunk=%d", rig.name, p, chunk)
				t.Run(name, func(t *testing.T) {
					m := rig.mk(p)
					defer m.Close()
					want := make([][][]int64, p) // [rank][src]block
					got := make([][][]int64, p)
					calls := make([]int, p)
					m.MustRun(func(pe *comm.PE) {
						data := raggedBlock(pe.Rank(), p)
						ref := AllGatherv(pe, slices.Clone(data))
						want[pe.Rank()] = make([][]int64, p)
						for src, b := range ref {
							want[pe.Rank()][src] = slices.Clone(b)
						}
						got[pe.Rank()] = make([][]int64, p)
						AllGatherChunked(pe, data, chunk, func(src int, block []int64) {
							if got[pe.Rank()][src] != nil {
								t.Errorf("PE %d: rank %d visited twice", pe.Rank(), src)
							}
							got[pe.Rank()][src] = slices.Clone(block)
							calls[pe.Rank()]++
						})
					})
					for r := 0; r < p; r++ {
						if calls[r] != p {
							t.Errorf("PE %d: %d visits, want %d", r, calls[r], p)
						}
						if !reflect.DeepEqual(want[r], got[r]) {
							t.Errorf("PE %d: chunked gather diverges from AllGatherv\nwant %v\ngot  %v", r, want[r], got[r])
						}
					}
				})
			}
		}
	}
}

// TestAllGatherChunkedStartups pins the latency model: ⌈log₂ c⌉ + p/c − 1
// startups per PE for the group phase plus the inter-group ring.
func TestAllGatherChunkedStartups(t *testing.T) {
	for _, tc := range []struct{ p, chunk, want int }{
		{16, 4, 2 + 3},  // log2(4) + 16/4 − 1
		{16, 1, 0 + 15}, // pure ring
		{16, 16, 4 + 0}, // single group = plain Bruck
		{12, 5, 2 + 2},  // c = largest divisor ≤ 5 → 4
	} {
		m := comm.NewMachine(comm.DefaultConfig(tc.p))
		m.MustRun(func(pe *comm.PE) {
			AllGatherChunked(pe, []int64{int64(pe.Rank())}, tc.chunk, func(int, []int64) {})
		})
		if got := int(m.Stats().MaxSends); got != tc.want {
			t.Errorf("p=%d chunk=%d: %d startups/PE, want %d", tc.p, tc.chunk, got, tc.want)
		}
		m.Close()
	}
}

// TestAllGatherChunkedVolume pins the volume class: per-PE sent words
// stay within total + p length-words regardless of chunk.
func TestAllGatherChunkedVolume(t *testing.T) {
	const p, blockLen = 16, 8
	total := int64(p * blockLen)
	for _, chunk := range []int{1, 4, 16} {
		m := comm.NewMachine(comm.DefaultConfig(p))
		m.MustRun(func(pe *comm.PE) {
			AllGatherChunked(pe, make([]int64, blockLen), chunk, func(int, []int64) {})
		})
		if got := m.Stats().MaxSentWords; got > total+int64(p) {
			t.Errorf("chunk=%d: %d words/PE sent, want ≤ %d", chunk, got, total+int64(p))
		}
		m.Close()
	}
}
