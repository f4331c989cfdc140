package wireprogs

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"commtopk/internal/wire"
)

// TestWireCodecsRoundTrip: the two codec families this package's init
// registers itself — int and i64x2 ([2]int64), each as a value, a
// pointer, a slice and a pooled slice — decode what they encoded, under
// the name they were registered as. The other codecs init registers
// belong to bpq, mtopk and freq, which round-trip them in their own
// tests. A codec of these two families without a sample here fails the
// test.
func TestWireCodecsRoundTrip(t *testing.T) {
	ints := []int{math.MinInt, -1, 0, math.MaxInt}
	pairs := [][2]int64{{math.MinInt64, math.MaxInt64}, {0, -7}, {1 << 40, 3}}
	samples := map[string]any{
		"int":      ints[0],
		"int*":     &ints[3],
		"int[]":    ints,
		"int[]*":   &ints,
		"i64x2":    pairs[0],
		"i64x2*":   &pairs[1],
		"i64x2[]":  pairs,
		"i64x2[]*": &pairs,
	}
	for _, name := range wire.RegisteredNames() {
		if fam := strings.TrimRight(name, "[]*"); (fam == "int" || fam == "i64x2") && samples[name] == nil {
			t.Errorf("init registered %q, which has no round-trip sample", name)
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
