// Package wire is the multi-process transport behind comm.Remote: the
// machine's p PEs are split into contiguous groups, one OS process
// per group, connected by length-prefixed frames over Unix-domain
// sockets (TCP via the same dialer seam). The leader process runs group
// 0 and relays frames between workers (hub topology: every worker holds
// exactly one connection, to the leader), so cross-process sends behave
// exactly like in-process ones — keyed demux, IRecv binding, Post
// doorbells and the α/β meters are all unchanged, pinned bit-identical
// to the mailbox backend by the differential suite.
//
// This file is the codec layer: frame I/O, the (src, dst, ctx, payload)
// envelope, and the payload type registry. Payloads cross process
// boundaries by value, so every concrete payload type must be registered
// (RegisterPOD for pointer-free types, Register for custom layouts);
// type identity on the wire is the FNV-64a hash of the registration
// name, which is stable across binaries — registration ORDER is not.
// Decoding is defensive end to end: malformed input (truncated frames,
// oversized lengths, unknown type ids) returns an error, never panics,
// and never allocates more than the bytes that actually arrived plus one
// read chunk.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// MaxFrame is the hard cap on one frame body. Larger bodies indicate a
// corrupt stream (or a payload that should have been chunked by the
// algorithm layer) and are rejected before allocation.
const MaxFrame = 1 << 28

// Frame kinds (first body byte).
const (
	kData     byte = iota + 1 // envelope: a cross-process message
	kHello                    // worker → leader: here is my group index
	kWelcome                  // leader → worker: machine config + rank map
	kReady                    // worker → leader: machine built, rendezvous done
	kStart                    // leader → worker: run this registered program
	kDone                     // worker → leader: run finished (stats, results, error)
	kAbort                    // leader → worker: abort the current run
	kShutdown                 // leader → worker: tear down and exit 0
)

// writeFrame writes one length-prefixed frame (4-byte little-endian body
// length, then the body).
func writeFrame(w io.Writer, body []byte) error {
	if len(body) == 0 || len(body) > MaxFrame {
		return fmt.Errorf("wire: invalid frame body length %d", len(body))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame body. The declared length is validated
// against MaxFrame before any allocation, and the buffer grows only as
// bytes actually arrive — a hostile length header cannot force a large
// allocation.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d out of range (0, %d]", n, MaxFrame)
	}
	const chunk = 64 << 10
	body := make([]byte, 0, min(n, chunk))
	for len(body) < n {
		grab := min(n-len(body), chunk)
		off := len(body)
		body = append(body, make([]byte, grab)...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, fmt.Errorf("wire: truncated frame (%d of %d bytes): %w", off, n, err)
		}
	}
	return body, nil
}

// Enc appends primitive values to a byte buffer — the write half the
// registered payload codecs are built from.
type Enc struct{ b []byte }

func (e *Enc) U8(v byte)     { e.b = append(e.b, v) }
func (e *Enc) U32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Raw(p []byte)  { e.b = append(e.b, p...) }
func (e *Enc) Str(s string)  { e.U64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *Enc) Bytes() []byte { return e.b }

// Dec consumes primitive values from a frame body. Every read validates
// the remaining length; the first failure latches Err and all subsequent
// reads return zero values, so codecs can decode straight-line and check
// Err once.
type Dec struct {
	b   []byte
	off int
	err error
}

// Err returns the first decoding failure, or nil.
func (d *Dec) Err() error { return d.err }

// Failf records a decoding failure (used by codecs for semantic checks,
// e.g. an element count that exceeds the remaining bytes).
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Remaining returns the number of unconsumed bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Take consumes n raw bytes, returning a subslice of the frame body (the
// caller copies if it retains).
func (d *Dec) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.Failf("truncated: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *Dec) U8() byte {
	p := d.Take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *Dec) U32() uint32 {
	p := d.Take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *Dec) U64() uint64 {
	p := d.Take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.Failf("truncated string: length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	return string(d.Take(int(n)))
}

// Len consumes an element count and validates it against the remaining
// bytes at elemSize bytes per element — the over-allocation guard every
// slice codec must pass before making the slice.
func (d *Dec) Len(elemSize int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(d.Remaining()/elemSize) {
		d.Failf("element count %d exceeds remaining payload (%d bytes, %d per element)", n, d.Remaining(), elemSize)
		return 0
	}
	return int(n)
}

// --- payload type registry ---

type codecEntry struct {
	name string
	id   uint64
	rt   reflect.Type
	enc  func(e *Enc, v any)
	dec  func(d *Dec) any
}

var reg struct {
	sync.RWMutex
	byID   map[uint64]*codecEntry
	byType map[reflect.Type]*codecEntry
}

// TypeID returns the wire identity of a registration name: FNV-64a of
// the name. Stable across binaries and registration orders — the leader
// and worker processes need only agree on names, not init sequences.
func TypeID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	id := h.Sum64()
	if id == 0 {
		id = 1 // 0 is reserved for the nil payload
	}
	return id
}

// Register adds a payload codec for concrete type T under name.
// Registering the same (name, T) pair again is a no-op; any other
// collision (name reused for a different type, or T already registered
// under a different name) panics at init time.
func Register[T any](name string, encFn func(*Enc, T), decFn func(*Dec) T) {
	registerEntry(&codecEntry{
		name: name,
		id:   TypeID(name),
		rt:   reflect.TypeFor[T](),
		enc:  func(e *Enc, v any) { encFn(e, v.(T)) },
		dec:  func(d *Dec) any { return decFn(d) },
	})
}

func registerEntry(ce *codecEntry) {
	reg.Lock()
	defer reg.Unlock()
	if reg.byID == nil {
		reg.byID = make(map[uint64]*codecEntry)
		reg.byType = make(map[reflect.Type]*codecEntry)
	}
	if old := reg.byID[ce.id]; old != nil {
		if old.rt == ce.rt && old.name == ce.name {
			return // idempotent re-registration
		}
		panic(fmt.Sprintf("wire: codec name %q (id %#x) collides with %q for %v", ce.name, ce.id, old.name, old.rt))
	}
	if old := reg.byType[ce.rt]; old != nil {
		panic(fmt.Sprintf("wire: type %v already registered as %q", ce.rt, old.name))
	}
	reg.byID[ce.id] = ce
	reg.byType[ce.rt] = ce
}

func lookupType(rt reflect.Type) *codecEntry {
	reg.RLock()
	ce := reg.byType[rt]
	reg.RUnlock()
	return ce
}

func lookupID(id uint64) *codecEntry {
	reg.RLock()
	ce := reg.byID[id]
	reg.RUnlock()
	return ce
}

// RegisterPOD registers a pointer-free fixed-size type T — and its
// derived payload shapes *T, []T and *[]T — for raw-byte transport. The
// element type must contain no pointers, no padding, and have a
// little-endian-stable layout (the substrate's payloads are machine
// words and flat structs of them). Panics if T contains pointers.
func RegisterPOD[T any](name string) {
	rt := reflect.TypeFor[T]()
	size := int(rt.Size())
	if size == 0 || hasPointers(rt) {
		panic(fmt.Sprintf("wire: RegisterPOD %q: %v is not a pointer-free fixed-size type", name, rt))
	}
	Register[T](name,
		func(e *Enc, v T) { e.Raw(podBytes(&v, size)) },
		func(d *Dec) T {
			var v T
			if p := d.Take(size); p != nil {
				copy(podBytes(&v, size), p)
			}
			return v
		})
	Register[*T](name+"*",
		func(e *Enc, v *T) {
			if v == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.Raw(podBytes(v, size))
		},
		func(d *Dec) *T {
			if d.U8() == 0 {
				return nil
			}
			v := new(T)
			if p := d.Take(size); p != nil {
				copy(podBytes(v, size), p)
			}
			return v
		})
	Register[[]T](name+"[]",
		func(e *Enc, v []T) { encPODSlice(e, v, size) },
		func(d *Dec) []T { return decPODSlice[T](d, size) })
	Register[*[]T](name+"[]*",
		func(e *Enc, v *[]T) {
			if v == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			encPODSlice(e, *v, size)
		},
		func(d *Dec) *[]T {
			if d.U8() == 0 {
				return nil
			}
			s := decPODSlice[T](d, size)
			return &s
		})
}

// EncPODSlice / DecPODSlice encode a slice of a pointer-free fixed-size
// element type as a count plus raw bytes — the building blocks composite
// codecs (e.g. coll's ranked-block and Bruck batch types) are written
// from. DecPODSlice enforces the same count-vs-remaining-bytes guard as
// every registered slice codec.
func EncPODSlice[T any](e *Enc, v []T) {
	e.checkPOD(reflect.TypeFor[T]())
	encPODSlice(e, v, int(unsafe.Sizeof(*new(T))))
}

func DecPODSlice[T any](d *Dec) []T {
	return decPODSlice[T](d, int(unsafe.Sizeof(*new(T))))
}

func (e *Enc) checkPOD(rt reflect.Type) {
	if rt.Size() == 0 || hasPointers(rt) {
		panic(fmt.Sprintf("wire: %v is not a pointer-free fixed-size type", rt))
	}
}

func encPODSlice[T any](e *Enc, v []T, size int) {
	e.U64(uint64(len(v)))
	if len(v) > 0 {
		e.Raw(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), size*len(v)))
	}
}

func decPODSlice[T any](d *Dec, size int) []T {
	n := d.Len(size)
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]T, n)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), size*n), d.Take(size*n))
	return s
}

func podBytes[T any](v *T, size int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), size)
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// appendPayload appends the typed payload (type id, then the codec's
// bytes). A nil payload is id 0. Unregistered types are an error naming
// the type, so a new algorithm payload fails fast with a fix-it message.
func appendPayload(b []byte, v any) ([]byte, error) {
	e := Enc{b: b}
	if v == nil {
		e.U64(0)
		return e.b, nil
	}
	ce := lookupType(reflect.TypeOf(v))
	if ce == nil {
		return b, fmt.Errorf("wire: payload type %T not registered (add a wire.RegisterPOD/Register call, see internal/wire/wireprogs)", v)
	}
	e.U64(ce.id)
	ce.enc(&e, v)
	return e.b, nil
}

// decodePayload consumes a typed payload.
func decodePayload(d *Dec) (any, error) {
	id := d.U64()
	if d.err != nil {
		return nil, d.err
	}
	if id == 0 {
		return nil, nil
	}
	ce := lookupID(id)
	if ce == nil {
		return nil, fmt.Errorf("wire: unknown payload type id %#x (codec not registered in this process)", id)
	}
	v := ce.dec(d)
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// RoundTrip encodes v with its registered codec and decodes the bytes
// again — what a payload undergoes crossing a process boundary — and
// returns the registration name it travelled under. It exists for the
// codec tests of the packages that own the payload types.
func RoundTrip(v any) (name string, back any, err error) {
	b, err := appendPayload(nil, v)
	if err != nil {
		return "", nil, err
	}
	if ce := lookupType(reflect.TypeOf(v)); ce != nil {
		name = ce.name
	}
	d := Dec{b: b}
	back, err = decodePayload(&d)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("wire: %q left %d of %d bytes undecoded", name, d.Remaining(), len(b))
	}
	return name, back, err
}

// RegisteredNames returns the registration name of every codec, sorted.
func RegisteredNames() []string {
	reg.RLock()
	defer reg.RUnlock()
	names := make([]string, 0, len(reg.byID))
	for _, ce := range reg.byID {
		names = append(names, ce.name)
	}
	slices.Sort(names)
	return names
}
