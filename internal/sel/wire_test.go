package sel

import (
	"reflect"
	"slices"
	"testing"

	"commtopk/internal/coll"
	"commtopk/internal/wire"
)

// wireKey is registered by this test only.
type wireKey uint64

// TestWireCodecsRoundTrip: what RegisterWireCodecs adds on top of the
// collective set (which internal/coll round-trips itself) — the tagged
// reduction operand, the AMS lanes' candidate slot and the down-sweep
// verdict, in each of their payload
// shapes — decodes what it encoded, under the name it was registered as.
// A codec added to RegisterWireCodecs without a sample here fails the test.
func TestWireCodecsRoundTrip(t *testing.T) {
	coll.RegisterWireCodecs[wireKey]("sel.test.key")
	before := wire.RegisteredNames()
	RegisterWireCodecs[wireKey]("sel.test.key")
	tags := []tagged[wireKey]{{Has: true, Val: 1 << 50}, {}}
	cands := []laneCand[wireKey]{{Has: true, Max: true, Val: 1<<63 + 7}, {Max: true}, {Has: true, Val: 3}, {}}
	verdicts := []verdict[wireKey]{
		{na: 1800, nb: 3847, lo: 1 << 20, hi: 1<<21 + 5, rate: 0.012266666666666667},
		{na: 0, nb: 64, lo: 42, rate: 0},
	}
	samples := map[string]any{
		"sel.tagged[sel.test.key]":      tags[0],
		"sel.tagged[sel.test.key]*":     &tags[1],
		"sel.tagged[sel.test.key][]":    tags,
		"sel.tagged[sel.test.key][]*":   &tags,
		"sel.laneCand[sel.test.key]":    cands[0],
		"sel.laneCand[sel.test.key]*":   &cands[1],
		"sel.laneCand[sel.test.key][]":  cands,
		"sel.laneCand[sel.test.key][]*": &cands,
		"sel.verdict[sel.test.key]":     verdicts[0],
		"sel.verdict[sel.test.key]*":    &verdicts[1],
		"sel.verdict[sel.test.key][]":   verdicts,
		"sel.verdict[sel.test.key][]*":  &verdicts,
	}
	for _, name := range wire.RegisteredNames() {
		if _, known := slices.BinarySearch(before, name); !known && samples[name] == nil {
			t.Errorf("RegisterWireCodecs registered %q, which has no round-trip sample", name)
		}
	}
	for name, v := range samples {
		as, back, err := wire.RoundTrip(v)
		switch {
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case as != name:
			t.Errorf("%s: %T travels as %q", name, v, as)
		case !reflect.DeepEqual(back, v):
			t.Errorf("%s: sent %+v, received %+v", name, v, back)
		}
	}
}
