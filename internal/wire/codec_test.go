package wire

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"commtopk/internal/mailbox"
)

// Test-local registered payload shapes (names disjoint from the real
// registration package so both can live in one test binary).
type tPoint struct {
	X, Y int32
}

func init() {
	RegisterPOD[uint16]("test.u16")
	RegisterPOD[tPoint]("test.point")
	Register[string]("test.str",
		func(e *Enc, s string) { e.Str(s) },
		func(d *Dec) string { return d.Str() })
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{1}, []byte("hello frames"), bytes.Repeat([]byte{0xab}, 200_000)}
	for _, b := range bodies {
		if err := writeFrame(&buf, b); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(b), err)
		}
	}
	for i, want := range bodies {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame #%d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestReadFrameHostileLength(t *testing.T) {
	// A header declaring more than MaxFrame is rejected before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized length accepted")
	}
	// A large declared length with a short stream fails as truncated
	// without allocating the declared size (allocation grows with arrival).
	buf.Reset()
	buf.Write([]byte{0x00, 0x00, 0x00, 0x08}) // 128 MiB declared
	buf.Write(make([]byte, 1000))
	if _, err := readFrame(&buf); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("got %v, want truncated-frame error", err)
	}
	// Zero length is invalid (every body has a kind byte).
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	const p = 16
	payloads := []any{
		nil,
		uint16(0xbeef),
		[]uint16{1, 2, 3},
		&[]uint16{9, 8},
		tPoint{X: -3, Y: 7},
		[]tPoint{{1, 2}, {3, 4}},
		"a string payload",
	}
	for i, data := range payloads {
		in := mailbox.Msg{Src: 3, Ctx: 2, Tag: 77, Words: int64(i), Depart: 1234.5 + float64(i), Data: data}
		body, err := appendEnvelope(nil, p, 11, in)
		if err != nil {
			t.Fatalf("payload #%d (%T): %v", i, data, err)
		}
		if dst, ok := envelopeDst(body); !ok || dst != 11 {
			t.Fatalf("payload #%d: envelopeDst = %d, %v", i, dst, ok)
		}
		dst, out, err := decodeEnvelope(body, p)
		if err != nil {
			t.Fatalf("payload #%d decode: %v", i, err)
		}
		if dst != 11 || out.Src != in.Src || out.Ctx != in.Ctx || out.Tag != in.Tag ||
			out.Words != in.Words || math.Float64bits(out.Depart) != math.Float64bits(in.Depart) {
			t.Fatalf("payload #%d: header mismatch %+v", i, out)
		}
		switch want := data.(type) {
		case nil:
			if out.Data != nil {
				t.Fatalf("nil payload decoded to %v", out.Data)
			}
		case []uint16:
			if got := out.Data.([]uint16); !bytes.Equal(u16bytes(got), u16bytes(want)) {
				t.Fatalf("got %v want %v", got, want)
			}
		case *[]uint16:
			if got := out.Data.(*[]uint16); !bytes.Equal(u16bytes(*got), u16bytes(*want)) {
				t.Fatalf("got %v want %v", *got, *want)
			}
		default:
			// Comparable payloads.
			if gotS, ok := out.Data.([]tPoint); ok {
				wantS := data.([]tPoint)
				for j := range wantS {
					if gotS[j] != wantS[j] {
						t.Fatalf("got %v want %v", gotS, wantS)
					}
				}
			} else if out.Data != data {
				t.Fatalf("payload #%d: got %v want %v", i, out.Data, data)
			}
		}
	}
}

func u16bytes(s []uint16) []byte {
	b := make([]byte, 0, 2*len(s))
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8))
	}
	return b
}

func TestEnvelopeRejectsBadInput(t *testing.T) {
	const p = 8
	good, err := appendEnvelope(nil, p, 5, mailbox.Msg{Src: 1, Tag: 9, Words: 3, Data: []uint16{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"wrong kind":     {kHello},
		"short header":   good[:10],
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0),
	}
	for name, body := range cases {
		if _, _, err := decodeEnvelope(body, p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Rank out of range for this machine size.
	if _, _, err := decodeEnvelope(good, 4); err == nil {
		t.Error("dst beyond p accepted")
	}
	// Unknown payload type id.
	bad := append([]byte{}, good...)
	for i := envHeaderLen; i < envHeaderLen+8; i++ {
		bad[i] = 0xee
	}
	if _, _, err := decodeEnvelope(bad, p); err == nil || !strings.Contains(err.Error(), "unknown payload type") {
		t.Errorf("unknown type id: got %v", err)
	}
	// Element count exceeding the remaining bytes must error, not allocate.
	var e Enc
	e.U8(kData)
	e.U32(1)
	e.U32(5)
	e.U32(0)
	e.U64(9)
	e.U64(3)
	e.F64(0)
	e.U64(TypeID("test.u16[]"))
	e.U64(1 << 40) // declared element count
	if _, _, err := decodeEnvelope(e.Bytes(), p); err == nil || !strings.Contains(err.Error(), "element count") {
		t.Errorf("oversized element count: got %v", err)
	}
}

func TestUnregisteredPayloadErrors(t *testing.T) {
	type private struct{ a int }
	_, err := appendEnvelope(nil, 4, 1, mailbox.Msg{Src: 0, Data: private{1}})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("got %v, want not-registered error", err)
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	if idx, err := decodeHello(appendHello(nil, 3)); err != nil || idx != 3 {
		t.Fatalf("hello: %d, %v", idx, err)
	}
	w := welcome{P: 64, Procs: 4, Lo: 16, Hi: 32, Alpha: 1000, Beta: 1, Seed: 42}
	got, err := decodeWelcome(appendWelcome(nil, w))
	if err != nil || got != w {
		t.Fatalf("welcome: %+v, %v", got, err)
	}
	s := startMsg{RunID: 7, Prog: "collectives", Args: []uint64{1, 2, 3}}
	gs, err := decodeStart(appendStart(nil, s))
	if err != nil || gs.RunID != 7 || gs.Prog != s.Prog || len(gs.Args) != 3 || gs.Args[2] != 3 {
		t.Fatalf("start: %+v, %v", gs, err)
	}
	d := doneMsg{RunID: 9, Results: []uint64{5, 6}, Err: "boom"}
	d.Stats.TotalWords, d.Stats.MaxClock = 123, 4.5
	gd, err := decodeDone(appendDone(nil, d))
	if err != nil || gd.RunID != 9 || gd.Stats.TotalWords != 123 || gd.Stats.MaxClock != 4.5 ||
		len(gd.Results) != 2 || gd.Results[1] != 6 || gd.Err != "boom" {
		t.Fatalf("done: %+v, %v", gd, err)
	}
	id, msg, err := decodeAbort(appendAbort(nil, 11, "why"))
	if err != nil || id != 11 || msg != "why" {
		t.Fatalf("abort: %d %q %v", id, msg, err)
	}
}

func TestTypeIDStability(t *testing.T) {
	// The on-wire identity is the FNV-64a of the name — pin a few values
	// so an accidental hash change cannot silently break cross-binary
	// compatibility.
	if got := TypeID("u64"); got != 0x4d35d3193e8d66f2 {
		t.Errorf("TypeID(u64) = %#x", got)
	}
	if TypeID("a") == TypeID("b") {
		t.Error("distinct names share an id")
	}
}

// FuzzEnvelope: malformed bytes through every decode path must return an
// error or a valid value — never panic, never allocate beyond the input
// size plus one read chunk.
func FuzzEnvelope(f *testing.F) {
	seed, _ := appendEnvelope(nil, 16, 11, mailbox.Msg{Src: 3, Ctx: 1, Tag: 5, Words: 3, Depart: 7.5, Data: []uint16{1, 2, 3}})
	f.Add(seed)
	f.Add(appendHello(nil, 2))
	f.Add(appendWelcome(nil, welcome{P: 8, Procs: 2, Lo: 4, Hi: 8}))
	f.Add(appendStart(nil, startMsg{RunID: 1, Prog: "kth", Args: []uint64{9}}))
	f.Add(appendDone(nil, doneMsg{RunID: 1, Results: []uint64{4}}))
	f.Add(appendAbort(nil, 1, "x"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 0 {
			decodeEnvelope(body, 16)
			envelopeDst(body)
			decodeHello(body)
			decodeWelcome(body)
			decodeStart(body)
			decodeDone(body)
			decodeAbort(body)
		}
		// The same bytes as a raw stream: framing must fail cleanly on
		// truncation and hostile length headers alike.
		r := bytes.NewReader(body)
		for {
			if _, err := readFrame(r); err != nil {
				if r.Len() != 0 {
					io.Copy(io.Discard, r)
				}
				break
			}
		}
	})
}
