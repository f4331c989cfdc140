package coll

import (
	"commtopk/internal/wire"
)

// RegisterWireCodecs registers, under names derived from elemName, every
// payload shape the collectives over element type T can put on a
// cross-process frame: the POD element shapes (T, *T, []T, *[]T) that
// Broadcast, AllToAll, the scan, the router and the pooled-copy sends
// use, plus the Bruck carriers — batches with pooled ownership
// (ReduceConcatStep's tree edges) and borrowed views (the all-gather).
// Call it (from the same registration package in every participating
// binary — see internal/wire/wireprogs) once per element type a
// wire-backed program communicates; elemName must match across processes
// because it defines the on-wire type identity. Registration is
// idempotent for the same (name, type) pair.
func RegisterWireCodecs[T any](elemName string) {
	wire.RegisterPOD[T](elemName)

	// Bruck batches cross only as one-element pooled slices; the decoded
	// side materializes fresh backing stores, which the receiver recycles
	// into its own pools exactly as it would a locally forwarded batch.
	wire.Register[*[]bruckMsg[T]]("coll.bruckMsg["+elemName+"][]*",
		func(e *wire.Enc, v *[]bruckMsg[T]) {
			if v == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.U64(uint64(len(*v)))
			for _, m := range *v {
				encPtrSlice(e, m.lens)
				encPtrSlice(e, m.data)
			}
		},
		func(d *wire.Dec) *[]bruckMsg[T] {
			if d.U8() == 0 {
				return nil
			}
			n := d.Len(2) // two nil flags minimum per batch
			if d.Err() != nil {
				return nil
			}
			s := make([]bruckMsg[T], n)
			for i := range s {
				s[i].lens = decPtrSlice[int64](d)
				s[i].data = decPtrSlice[T](d)
			}
			return &s
		})

	wire.Register[*[]bruckView[T]]("coll.bruckView["+elemName+"][]*",
		func(e *wire.Enc, v *[]bruckView[T]) {
			if v == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.U64(uint64(len(*v)))
			for _, m := range *v {
				wire.EncPODSlice(e, m.lens)
				wire.EncPODSlice(e, m.data)
			}
		},
		func(d *wire.Dec) *[]bruckView[T] {
			if d.U8() == 0 {
				return nil
			}
			n := d.Len(16) // two counts minimum per view
			if d.Err() != nil {
				return nil
			}
			s := make([]bruckView[T], n)
			for i := range s {
				s[i].lens = wire.DecPODSlice[int64](d)
				s[i].data = wire.DecPODSlice[T](d)
			}
			return &s
		})
}

func encPtrSlice[T any](e *wire.Enc, v *[]T) {
	if v == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	wire.EncPODSlice(e, *v)
}

func decPtrSlice[T any](d *wire.Dec) *[]T {
	if d.U8() == 0 {
		return nil
	}
	s := wire.DecPODSlice[T](d)
	return &s
}
