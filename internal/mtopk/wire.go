package mtopk

import (
	"commtopk/internal/sel"
)

// RegisterWireCodecs registers the payload codecs the multicriteria
// algorithms put on a cross-process frame: the selection set over the
// OrdDesc-packed uint64 score keys (AMS selection, SmallestK) plus the
// float64 scalar carriers of the threshold/estimate reductions and the
// int64 carriers of the size/above-threshold count reductions. Call it
// from the shared registration package (see internal/wire/wireprogs) of
// every binary that runs mtopk programs on a windowed (comm.Remote)
// machine; idempotent.
func RegisterWireCodecs() {
	sel.RegisterWireCodecs[uint64]("u64")
	sel.RegisterWireCodecs[int64]("i64")
	sel.RegisterWireCodecs[float64]("f64")
}
