package sel

import (
	"cmp"

	"commtopk/internal/coll"
	"commtopk/internal/wire"
)

// RegisterWireCodecs registers the payload codecs the selection
// algorithms over key type K put on a cross-process frame: the full
// collective set for K (Kth's up-sweep rides coll's pooled batch carrier),
// the tagged optional-value carrier the min/max reductions use, its
// direction-carrying form the AMS lanes reduce, and the verdict Kth's
// down-sweep broadcasts. Call it from the shared registration package (see
// internal/wire/wireprogs) of every binary that runs sel or bpq programs
// on a windowed (comm.Remote) machine; elemName is the on-wire identity of K and must
// match across processes.
func RegisterWireCodecs[K cmp.Ordered](elemName string) {
	coll.RegisterWireCodecs[K](elemName)
	wire.RegisterPOD[tagged[K]]("sel.tagged[" + elemName + "]")
	wire.RegisterPOD[laneCand[K]]("sel.laneCand[" + elemName + "]")
	wire.RegisterPOD[verdict[K]]("sel.verdict[" + elemName + "]")
}
