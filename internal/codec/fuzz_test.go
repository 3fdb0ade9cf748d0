package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFloat64Key fuzzes the order-preserving bit flip the float-keyed
// codecs hand the radix dispatch: for any two non-NaN floats the keys
// must order exactly as the floats do, and floats that compare equal
// (-0 and +0 included) must share a key — the first is what makes the
// radix result agree with a float comparator, the second what keeps
// duplicates of one value together.
func FuzzFloat64Key(f *testing.F) {
	f.Add(0.0, math.Copysign(0, -1))
	f.Add(math.Inf(-1), -math.MaxFloat64)
	f.Add(5e-324, -5e-324)
	f.Add(1.0, math.Nextafter(1, 2))
	f.Fuzz(func(t *testing.T, a, b float64) {
		if a != a || b != b {
			t.Skip("NaN has no place in the float order")
		}
		ka, kb := Float64Key(a), Float64Key(b)
		if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
			t.Fatalf("a=%g (%#x) b=%g (%#x): float order and key order disagree", a, ka, b, kb)
		}
	})
}

// FuzzKeyField holds every codec that declares its key field to its
// Uint64Key, bit for bit: the eight bytes at the declared offset of the
// record's memory image, decoded as declared, must be the key for any
// bits there — both zeros, the infinities, NaNs and subnormals included
// — whatever the payload around them.
func FuzzKeyField(f *testing.F) {
	for _, bits := range []uint64{0, 1 << 63, 1, 1<<63 | 1, 0x000fffffffffffff, 0x7ff0000000000000,
		0xfff0000000000000, 0x7ff8000000000001, 0xfff8000000000000, 1<<63 - 1, ^uint64(0)} {
		f.Add(bits, uint64(0x0123456789abcdef))
	}
	f.Fuzz(func(t *testing.T, bits, payload uint64) {
		wire := make([]byte, 32)
		for off := 0; off < len(wire); off += 8 {
			binary.LittleEndian.PutUint64(wire[off:], payload+uint64(off))
		}
		binary.LittleEndian.PutUint64(wire, bits) // every built-in declares offset 0
		checkKeyField(t, Float64{}, wire)
		checkKeyField(t, Uint64{}, wire)
		checkKeyField(t, Int64{}, wire)
		checkKeyField(t, PTFCodec{}, wire)
		checkKeyField(t, ParticleCodec{}, wire)
	})
}

// checkKeyField decodes one c record from wire and compares its field
// read with its Uint64Key.
func checkKeyField[T any](t *testing.T, c Codec[T], wire []byte) {
	t.Helper()
	kf, ok := any(c).(KeyFielder)
	if !ok || !IsZeroCopy(c) {
		t.Fatalf("%T: no key field to read in place", c)
	}
	off, enc := kf.KeyField()
	rec := c.Unmarshal(wire[:c.Size()])
	image, _ := View(c, []T{rec})
	key, _ := Uint64KeyOf(c)
	if got, want := enc.Decode(binary.LittleEndian.Uint64(image[off:])), key(rec); got != want {
		t.Fatalf("%T, field bits %#x: in-place key %#x, Uint64Key %#x", c, binary.LittleEndian.Uint64(image[off:]), got, want)
	}
}

// FuzzDecodeAppend fuzzes the one place exchange wire bytes are parsed:
// the receive sinks append-decode every arriving chunk. However a valid
// encoding is cut into record-aligned chunks, the zero-copy decode (one
// memcpy per chunk) and the marshal decode (Unmarshal per record) must
// both reassemble the records of the whole; a chunk that is not a whole
// number of records must be refused without a panic and without a
// partial record appended.
func FuzzDecodeAppend(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 0xf8}, 9), []byte{1, 3})
	f.Add([]byte("not even one record"), []byte{})
	f.Add(make([]byte, 16*40+5), []byte{7, 0, 255, 2})
	zc := TaggedCodec{}
	marshal := Funcs[Tagged]{Width: 16, MarshalFn: zc.Marshal, UnmarshFn: zc.Unmarshal}
	if !IsZeroCopy[Tagged](zc) || IsZeroCopy[Tagged](marshal) {
		f.Skip("host does not separate the zero-copy and the marshal decode")
	}
	f.Fuzz(func(t *testing.T, wire, cuts []byte) {
		const sz = 16
		whole := wire[:len(wire)-len(wire)%sz]
		for name, cd := range map[string]Codec[Tagged]{"zero-copy": zc, "marshal": marshal} {
			var recs []Tagged
			for off, k := 0, 0; off < len(whole); k++ {
				n := sz
				if len(cuts) > 0 {
					n = sz * (1 + int(cuts[k%len(cuts)])%8)
				}
				n = min(n, len(whole)-off)
				var err error
				if recs, err = DecodeAppend(cd, recs, whole[off:off+n]); err != nil {
					t.Fatalf("%s: aligned chunk [%d,%d) refused: %v", name, off, off+n, err)
				}
				off += n
			}
			// Compare re-encoded bytes, not records: NaN keys are valid
			// wire content and never equal themselves.
			if got := marshalLoop(cd, recs); !bytes.Equal(got, whole) {
				t.Fatalf("%s: %d chunked records re-encode to different bytes", name, len(recs))
			}
			if len(wire)%sz != 0 {
				got, err := DecodeAppend(cd, recs, wire)
				if err == nil {
					t.Fatalf("%s: accepted a %d-byte chunk of %d-byte records", name, len(wire), sz)
				}
				if len(got) != len(recs) {
					t.Fatalf("%s: refused chunk still appended %d records", name, len(got)-len(recs))
				}
			}
		}
	})
}
