package bpq

import (
	"reflect"
	"slices"
	"testing"

	"commtopk/internal/sel"
	"commtopk/internal/wire"
)

// wireKey is registered by this test only.
type wireKey uint64

// TestWireCodecsRoundTrip: what RegisterWireCodecs adds on top of the
// selection set (which internal/sel round-trips itself) — the queue's
// tagged PeekMin operand, in each of its payload shapes — decodes what
// it encoded, under the name it was registered as. A codec added to
// RegisterWireCodecs without a sample here fails the test.
func TestWireCodecsRoundTrip(t *testing.T) {
	sel.RegisterWireCodecs[wireKey]("bpq.test.key")
	before := wire.RegisteredNames()
	RegisterWireCodecs[wireKey]("bpq.test.key")
	tags := []tagged[wireKey]{{Has: true, Val: 1<<50 + 3}, {}}
	samples := map[string]any{
		"bpq.tagged[bpq.test.key]":    tags[0],
		"bpq.tagged[bpq.test.key]*":   &tags[1],
		"bpq.tagged[bpq.test.key][]":  tags,
		"bpq.tagged[bpq.test.key][]*": &tags,
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
