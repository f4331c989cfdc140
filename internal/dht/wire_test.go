package dht

import (
	"reflect"
	"strings"
	"testing"

	"commtopk/internal/wire"
)

// TestWireCodecsRoundTrip: the element codecs RegisterWireCodecs adds —
// KV and HC, each as a value, a pointer, a slice and a pooled slice —
// decode what they encoded, under the name they were registered as. The
// collective carriers registered around them (coll.bruckMsg[dht.KV][]*
// and the like) are coll's generic codecs, which internal/coll
// round-trips itself. A dht codec without a sample here fails the test.
func TestWireCodecsRoundTrip(t *testing.T) {
	RegisterWireCodecs()
	kvs := []KV{{Key: 1<<63 + 5, Count: 7}, {Key: 0, Count: -1}, {Key: 42, Count: 1 << 40}}
	hcs := []HC{{Hash: 1<<32 - 1, Count: 3}, {Hash: 0, Count: 1<<32 - 1}}
	samples := map[string]any{
		"dht.KV":    kvs[0],
		"dht.KV*":   &kvs[1],
		"dht.KV[]":  kvs,
		"dht.KV[]*": &kvs,
		"dht.HC":    hcs[0],
		"dht.HC*":   &hcs[1],
		"dht.HC[]":  hcs,
		"dht.HC[]*": &hcs,
	}
	for _, name := range wire.RegisteredNames() {
		if strings.HasPrefix(name, "dht.") && samples[name] == nil {
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
