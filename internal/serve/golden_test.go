package serve

import (
	"fmt"
	"reflect"
	"testing"

	"commtopk/internal/comm"
)

// TestServeMixedGolden pins a fixed Kth/DeleteMin sequence at
// p ∈ {1, 3, 16}: every query's answer, realized batch size and
// attributed words and sends, bit for bit, served strictly one at a time
// and at full inflight depth. The sequence ends with a DeleteMin asking
// for at least what remains and one on the emptied queue; Kth queries
// after them still answer from the whole key set.
func TestServeMixedGolden(t *testing.T) {
	want := map[int][]queryOutcome{
		1: {
			{res: 562651720480456706, n: 0, words: 0, sends: 0},
			{res: 2671526869773320206, n: 5, words: 0, sends: 0},
			{res: 9380663006505992229, n: 0, words: 0, sends: 0},
			{res: 3293464593270046749, n: 1, words: 0, sends: 0},
			{res: 0, n: 34, words: 0, sends: 0},
			{res: 18386531863682351127, n: 0, words: 0, sends: 0},
			{res: 0, n: 0, words: 0, sends: 0},
			{res: 3383257305409650698, n: 0, words: 0, sends: 0},
			{res: 0, n: 0, words: 0, sends: 0},
			{res: 4728667202415230996, n: 0, words: 0, sends: 0},
		},
		3: {
			{res: 107687713590739073, n: 0, words: 8, sends: 4},
			{res: 562651720480456706, n: 5, words: 32, sends: 8},
			{res: 9848460403976175765, n: 0, words: 164, sends: 16},
			{res: 748566039293329470, n: 1, words: 16, sends: 8},
			{res: 4962326346748395558, n: 37, words: 121, sends: 16},
			{res: 18445585215121260587, n: 0, words: 110, sends: 12},
			{res: 0, n: 116, words: 8, sends: 4},
			{res: 1334437871725052062, n: 0, words: 106, sends: 12},
			{res: 0, n: 0, words: 8, sends: 4},
			{res: 6899904195984359526, n: 0, words: 130, sends: 12},
		},
		16: {
			{res: 34428792639324519, n: 0, words: 128, sends: 64},
			{res: 129839787077009564, n: 5, words: 479, sends: 124},
			{res: 8712363069245751545, n: 0, words: 982, sends: 150},
			{res: 175869751220765394, n: 1, words: 256, sends: 128},
			{res: 748566039293329470, n: 37, words: 881, sends: 184},
			{res: 18445890744356962677, n: 0, words: 592, sends: 90},
			{res: 0, n: 807, words: 128, sends: 64},
			{res: 177682610788499597, n: 0, words: 580, sends: 90},
			{res: 0, n: 0, words: 128, sends: 64},
			{res: 5957843835285406165, n: 0, words: 959, sends: 150},
		},
	}
	for _, p := range []int{1, 3, 16} {
		shards, sorted := mkUniqueShards(p, 57)
		n := int64(len(sorted))
		queries := []mixedQuery{
			{false, 1}, {true, 5}, {false, n / 2}, {true, 1}, {true, 37},
			{false, n}, {true, n}, {false, 7}, {true, 3}, {false, n / 3},
		}
		for _, run := range []struct {
			cfg        Config
			concurrent bool
		}{
			{Config{MaxInflight: 1, BatchMax: 1, Seed: 41}, false},
			{Config{MaxInflight: 6, BatchMax: 4, Seed: 41}, true},
		} {
			m := comm.NewMachine(comm.DefaultConfig(p))
			got := runServedMixed(t, m, shards, queries, run.cfg, run.concurrent)
			m.Close()
			if !reflect.DeepEqual(got, want[p]) {
				t.Errorf("p=%d concurrent=%v:\n got %s\nwant %s", p, run.concurrent, fmtServeGolden(got), fmtServeGolden(want[p]))
			}
		}
	}
}

// fmtServeGolden prints outcomes as the literal of a want entry.
func fmtServeGolden(outs []queryOutcome) string {
	s := "{\n"
	for _, o := range outs {
		s += fmt.Sprintf("\t{res: %d, n: %d, words: %d, sends: %d},\n", o.res, o.n, o.words, o.sends)
	}
	return s + "}"
}
