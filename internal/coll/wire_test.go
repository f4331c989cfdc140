package coll

import (
	"reflect"
	"slices"
	"testing"

	"commtopk/internal/wire"
)

// wireElem is registered by this test only, so the names the call adds to
// the registry are exactly the codecs RegisterWireCodecs derives from one
// element type.
type wireElem struct {
	Key  uint64
	A, B int32
}

// TestWireCodecsRoundTrip: every codec RegisterWireCodecs registers
// decodes what it encoded, under the name it was registered as. A codec
// added to RegisterWireCodecs without a sample here fails the test.
func TestWireCodecsRoundTrip(t *testing.T) {
	before := wire.RegisteredNames()
	RegisterWireCodecs[wireElem]("coll.test.elem")
	e := []wireElem{{1, 2, 3}, {1 << 40, -5, 6}, {7, 0, -1}}
	lens := []int64{2, 1}
	samples := map[string]any{
		"coll.test.elem":    e[0],
		"coll.test.elem*":   &e[1],
		"coll.test.elem[]":  e,
		"coll.test.elem[]*": &e,
		// The Bruck batch, which is also ReduceConcatStep's up-sweep carrier
		// (lens is then the summed header).
		"coll.bruckMsg[coll.test.elem][]*":  &[]bruckMsg[wireElem]{{lens: &lens, data: &e}},
		"coll.bruckView[coll.test.elem][]*": &[]bruckView[wireElem]{{lens: lens, data: e}},
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
