package codec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// marshalLoop is the reference encoder: the plain per-record Marshal
// loop with no fast paths. The zero-copy property tests compare every
// accelerated encode against it byte for byte.
func marshalLoop[T any](c Codec[T], recs []T) []byte {
	sz := c.Size()
	out := make([]byte, sz*len(recs))
	for i, r := range recs {
		c.Marshal(out[i*sz:(i+1)*sz], r)
	}
	return out
}

// unmarshalLoop is the reference decoder.
func unmarshalLoop[T any](c Codec[T], wire []byte) []T {
	sz := c.Size()
	out := make([]T, 0, len(wire)/sz)
	for off := 0; off < len(wire); off += sz {
		out = append(out, c.Unmarshal(wire[off:off+sz]))
	}
	return out
}

// checkZeroCopyCodec asserts the full zero-copy contract for one codec
// on one input: View is byte-identical to the marshal loop, EncodeSlice
// agrees, DecodeSlice/DecodeAppend invert it, and appending to a view
// does not scribble into the record slab.
func checkZeroCopyCodec[T any](t *testing.T, c Codec[T], recs []T) {
	t.Helper()
	if !IsZeroCopy[T](c) {
		t.Fatalf("%T does not qualify for zero copy on this machine", c)
	}
	want := marshalLoop(c, recs)

	wire, ok := View(c, recs)
	if !ok {
		t.Fatalf("%T: View refused a zero-copy codec", c)
	}
	if !bytes.Equal(wire, want) {
		t.Fatalf("%T: View bytes differ from the marshal loop", c)
	}
	if got := EncodeSlice(c, nil, recs); !bytes.Equal(got, want) {
		t.Fatalf("%T: EncodeSlice bytes differ from the marshal loop", c)
	}
	// Appending onto a non-empty prefix must splice, not corrupt.
	prefix := []byte{0xde, 0xad}
	if got := EncodeSlice(c, prefix, recs); !bytes.Equal(got[2:], want) || got[0] != 0xde {
		t.Fatalf("%T: EncodeSlice with prefix corrupted the buffer", c)
	}

	dec, err := DecodeSlice(c, want)
	if err != nil {
		t.Fatalf("%T: DecodeSlice: %v", c, err)
	}
	if !reflect.DeepEqual(dec, unmarshalLoop(c, want)) {
		t.Fatalf("%T: DecodeSlice differs from the unmarshal loop", c)
	}
	if len(recs) > 0 && !reflect.DeepEqual(dec, recs) {
		t.Fatalf("%T: decode(encode(recs)) != recs", c)
	}
	app, err := DecodeAppend(c, append([]T(nil), recs[:min(1, len(recs))]...), want)
	if err != nil {
		t.Fatalf("%T: DecodeAppend: %v", c, err)
	}
	if len(app) != min(1, len(recs))+len(recs) {
		t.Fatalf("%T: DecodeAppend length %d", c, len(app))
	}

	// Records inverts View in place: the view reads as the records, and
	// records written through it land as their wire form.
	buf := append([]byte(nil), want...)
	view, ok := Records(c, buf)
	if !ok || len(view) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(view, recs)) {
		t.Fatalf("%T: Records of the wire bytes is not the records (ok=%v)", c, ok)
	}
	clear(buf)
	copy(view, recs)
	if !bytes.Equal(buf, want) {
		t.Fatalf("%T: records written through Records are not their wire form", c)
	}

	if len(recs) > 0 {
		// len == cap on views: an append must reallocate, leaving the
		// record slab untouched.
		if len(wire) != cap(wire) {
			t.Fatalf("%T: view has spare capacity %d", c, cap(wire)-len(wire))
		}
		before := append([]T(nil), recs...)
		_ = append(wire, 0xff)
		if !reflect.DeepEqual(recs, before) {
			t.Fatalf("%T: appending to a view mutated the records", c)
		}
	}
}

// TestZeroCopyMatchesMarshal is the property test of the tentpole: for
// every built-in zero-copy codec, the view of a record slab is
// byte-identical to the per-record marshal loop and decodes back to the
// same records, across empty, single and bulk inputs.
func TestZeroCopyMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 3, 257, 4096}
	for _, n := range sizes {
		f64 := make([]float64, n)
		u64 := make([]uint64, n)
		i64 := make([]int64, n)
		ptf := make([]PTFRecord, n)
		par := make([]Particle, n)
		tag := make([]Tagged, n)
		for i := 0; i < n; i++ {
			f64[i] = rng.NormFloat64()
			u64[i] = rng.Uint64()
			i64[i] = int64(rng.Uint64())
			ptf[i] = PTFRecord{Score: rng.Float64(), ObjID: rng.Uint64()}
			par[i] = Particle{
				ClusterID: int64(rng.Uint64()),
				Pos:       [3]float32{rng.Float32(), rng.Float32(), rng.Float32()},
				Vel:       [3]float32{rng.Float32(), rng.Float32(), rng.Float32()},
			}
			tag[i] = Tagged{Key: rng.Float64(), Rank: int32(rng.Intn(64)), Index: int32(i)}
		}
		checkZeroCopyCodec[float64](t, Float64{}, f64)
		checkZeroCopyCodec[uint64](t, Uint64{}, u64)
		checkZeroCopyCodec[int64](t, Int64{}, i64)
		checkZeroCopyCodec[PTFRecord](t, PTFCodec{}, ptf)
		checkZeroCopyCodec[Particle](t, ParticleCodec{}, par)
		checkZeroCopyCodec[Tagged](t, TaggedCodec{}, tag)
	}
}

// TestIsZeroCopyGates walks the qualification matrix: undeclared codecs
// never qualify, declared ones do only when the in-memory width matches
// the wire width, and Funcs follows its ZeroCopyOK knob.
func TestIsZeroCopyGates(t *testing.T) {
	plain := Funcs[uint64]{
		Width:     8,
		MarshalFn: Uint64{}.Marshal,
		UnmarshFn: Uint64{}.Unmarshal,
	}
	if IsZeroCopy[uint64](plain) {
		t.Error("Funcs without ZeroCopyOK qualified")
	}
	plain.ZeroCopyOK = true
	if !IsZeroCopy[uint64](plain) {
		t.Error("Funcs with ZeroCopyOK and matching width did not qualify")
	}
	if _, ok := View[uint64](Funcs[uint64]{Width: 8, MarshalFn: plain.MarshalFn, UnmarshFn: plain.UnmarshFn}, []uint64{1}); ok {
		t.Error("View succeeded on a non-zero-copy codec")
	}

	// A codec that (wrongly) declares zero copy with a wire width that
	// differs from the memory width must be rejected by the size leg —
	// that check is what keeps a mistaken declaration from corrupting
	// data.
	type padded struct {
		A uint32
		B uint64 // 4 bytes of struct padding before this field
	}
	bad := Funcs[padded]{
		Width:      12, // wire: 4 + 8; memory: 16 with padding
		MarshalFn:  func(dst []byte, r padded) {},
		UnmarshFn:  func(src []byte) padded { return padded{} },
		ZeroCopyOK: true,
	}
	if unsafe.Sizeof(padded{}) == 12 {
		t.Fatal("test premise broken: padded struct has no padding")
	}
	if IsZeroCopy[padded](bad) {
		t.Error("codec with padded in-memory layout qualified for zero copy")
	}
}

// TestRecordsGates: Records refuses whenever one leg fails — a codec
// that does not qualify, a ragged length, or bytes misaligned for T.
func TestRecordsGates(t *testing.T) {
	wire, _ := View[uint64](Uint64{}, make([]uint64, 5)) // aligned for uint64
	if _, ok := Records[uint64](Funcs[uint64]{Width: 8, MarshalFn: Uint64{}.Marshal, UnmarshFn: Uint64{}.Unmarshal}, wire[:8]); ok {
		t.Error("Records succeeded on a non-zero-copy codec")
	}
	if _, ok := Records[uint64](Uint64{}, wire[:12]); ok {
		t.Error("Records accepted a ragged length")
	}
	if _, ok := Records[uint64](Uint64{}, wire[1:9]); ok {
		t.Error("Records accepted bytes misaligned for uint64")
	}
	if recs, ok := Records[uint64](Uint64{}, wire[:32]); !ok || len(recs) != 4 {
		t.Errorf("Records refused four aligned records (ok=%v, len %d)", ok, len(recs))
	}
	if recs, ok := Records[uint64](Uint64{}, nil); !ok || len(recs) != 0 {
		t.Errorf("Records of no bytes: ok=%v, len %d", ok, len(recs))
	}
}

// TestUint64KeyOrder: the integer keys the radix dispatch sorts by must
// order exactly like the codecs' canonical comparators, including the
// signed/unsigned boundary.
func TestUint64KeyOrder(t *testing.T) {
	ints := []int64{-1 << 63, -12345, -1, 0, 1, 98765, 1<<63 - 1}
	key, ok := Uint64KeyOf[int64](Int64{})
	if !ok {
		t.Fatal("Int64 has no Uint64Key")
	}
	for i := 1; i < len(ints); i++ {
		if key(ints[i-1]) >= key(ints[i]) {
			t.Errorf("key(%d) = %d not below key(%d) = %d",
				ints[i-1], key(ints[i-1]), ints[i], key(ints[i]))
		}
	}
	pkey, ok := Uint64KeyOf[Particle](ParticleCodec{})
	if !ok {
		t.Fatal("ParticleCodec has no Uint64Key")
	}
	a, b := Particle{ClusterID: -5}, Particle{ClusterID: 3}
	if pkey(a) >= pkey(b) {
		t.Errorf("particle key order broken: %d >= %d", pkey(a), pkey(b))
	}
	// The float-keyed codecs key through Float64Key; payload must not
	// reach the key.
	fkey, ok := Uint64KeyOf[float64](Float64{})
	if !ok {
		t.Fatal("Float64 has no Uint64Key")
	}
	floats := []float64{math.Inf(-1), -1e300, -2.5, -5e-324, 0, 5e-324, 1e-10, 0.5, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(floats); i++ {
		if fkey(floats[i-1]) >= fkey(floats[i]) {
			t.Errorf("key(%g) not below key(%g)", floats[i-1], floats[i])
		}
	}
	if negZero := math.Copysign(0, -1); fkey(negZero) != fkey(0) {
		t.Errorf("-0 and +0 compare equal but key %#x and %#x", fkey(negZero), fkey(0))
	}
	ptfKey, ok := Uint64KeyOf[PTFRecord](PTFCodec{})
	if !ok {
		t.Fatal("PTFCodec has no Uint64Key")
	}
	if ptfKey(PTFRecord{Score: 0.25, ObjID: 9}) != ptfKey(PTFRecord{Score: 0.25, ObjID: 1}) ||
		ptfKey(PTFRecord{Score: 0.25, ObjID: 9}) >= ptfKey(PTFRecord{Score: 0.5, ObjID: 1}) {
		t.Error("PTF key does not order by score alone")
	}
	// Tagged stays key-less: the equivalence tests rely on it taking
	// the comparison sort.
	if _, ok := Uint64KeyOf[Tagged](TaggedCodec{}); ok {
		t.Error("TaggedCodec claims an integer key")
	}
}

// TestDecodeAppendInPlace: a chunk that already sits just past dst's
// end — one a transport received into the receive slab — extends dst
// over it, keeping its records, and the next chunk appends behind it.
func TestDecodeAppendInPlace(t *testing.T) {
	slab := []float64{1, 2, 3, 4, 5, 6}
	wire, _ := View(Float64{}, slab[2:4])
	got, err := DecodeAppend(Float64{}, slab[:2:6], wire)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &slab[0] || len(got) != 4 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("in-place chunk gave %v, want the slab's first 4 records", got)
	}
	next, _ := View(Float64{}, []float64{9})
	if got, _ = DecodeAppend(Float64{}, got, next); &got[0] != &slab[0] || slab[4] != 9 {
		t.Fatalf("chunk after an in-place one gave %v", got)
	}
}
