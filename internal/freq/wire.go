package freq

import (
	"commtopk/internal/dht"
	"commtopk/internal/sel"
)

// RegisterWireCodecs registers the payload codecs the heavy-hitter
// algorithms put on a cross-process frame: the dht KV/HC routing
// payloads plus the uint64 selection set the shard top-k selection
// gathers. Call it from the shared registration package (see
// internal/wire/wireprogs) of every binary that runs freq programs on
// a windowed (comm.Remote) machine; idempotent.
func RegisterWireCodecs() {
	dht.RegisterWireCodecs()
	sel.RegisterWireCodecs[uint64]("u64")
	sel.RegisterWireCodecs[int64]("i64")
	sel.RegisterWireCodecs[float64]("f64")
}
