package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFloat64RoundTrip(t *testing.T) {
	c := Float64{}
	buf := make([]byte, c.Size())
	for _, v := range []float64{0, -0, 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)} {
		c.Marshal(buf, v)
		if got := c.Unmarshal(buf); got != v {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	// NaN round-trips bit-exactly.
	c.Marshal(buf, math.NaN())
	if got := c.Unmarshal(buf); !math.IsNaN(got) {
		t.Fatal("NaN lost")
	}
}

func TestIntCodecsRoundTrip(t *testing.T) {
	u := Uint64{}
	buf := make([]byte, 8)
	for _, v := range []uint64{0, 1, math.MaxUint64, 1 << 63} {
		u.Marshal(buf, v)
		if got := u.Unmarshal(buf); got != v {
			t.Fatalf("uint64 %v -> %v", v, got)
		}
	}
	i := Int64{}
	for _, v := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		i.Marshal(buf, v)
		if got := i.Unmarshal(buf); got != v {
			t.Fatalf("int64 %v -> %v", v, got)
		}
	}
}

func TestEncodeDecodeSlice(t *testing.T) {
	c := Float64{}
	in := []float64{3, 1, 4, 1, 5}
	buf := EncodeSlice(c, nil, in)
	if len(buf) != 40 {
		t.Fatalf("buffer length %d", len(buf))
	}
	out, err := DecodeSlice(c, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("index %d: %v != %v", i, out[i], in[i])
		}
	}
	// Appending to an existing buffer preserves the prefix.
	buf2 := EncodeSlice(c, []byte{9, 9}, in[:1])
	if buf2[0] != 9 || buf2[1] != 9 || len(buf2) != 10 {
		t.Fatalf("prefix lost: %v", buf2)
	}
}

func TestDecodeSliceRagged(t *testing.T) {
	c := Float64{}
	if _, err := DecodeSlice(c, make([]byte, 9)); err == nil {
		t.Fatal("ragged buffer accepted")
	}
	if _, err := DecodeAppend(c, nil, make([]byte, 7)); err == nil {
		t.Fatal("ragged buffer accepted by DecodeAppend")
	}
}

func TestDecodeAppendReuses(t *testing.T) {
	c := Uint64{}
	dst := make([]uint64, 0, 10)
	buf := EncodeSlice(c, nil, []uint64{1, 2, 3})
	out, err := DecodeAppend(c, dst, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("got %v", out)
	}
}

func TestPTFCodecRoundTrip(t *testing.T) {
	c := PTFCodec{}
	buf := make([]byte, c.Size())
	r := PTFRecord{Score: 0.75, ObjID: 123456789}
	c.Marshal(buf, r)
	if got := c.Unmarshal(buf); got != r {
		t.Fatalf("%+v -> %+v", r, got)
	}
}

func TestParticleCodecRoundTrip(t *testing.T) {
	c := ParticleCodec{}
	buf := make([]byte, c.Size())
	p := Particle{ClusterID: -7, Pos: [3]float32{1, 2, 3}, Vel: [3]float32{-4, 5, -6}}
	c.Marshal(buf, p)
	if got := c.Unmarshal(buf); got != p {
		t.Fatalf("%+v -> %+v", p, got)
	}
}

func TestTaggedCodecRoundTrip(t *testing.T) {
	c := TaggedCodec{}
	buf := make([]byte, c.Size())
	r := Tagged{Key: -0.5, Rank: 31, Index: -2}
	c.Marshal(buf, r)
	if got := c.Unmarshal(buf); got != r {
		t.Fatalf("%+v -> %+v", r, got)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(scores []float64, ids []uint64) bool {
		n := min(len(scores), len(ids))
		recs := make([]PTFRecord, n)
		for i := 0; i < n; i++ {
			recs[i] = PTFRecord{Score: scores[i], ObjID: ids[i]}
		}
		out, err := DecodeSlice(PTFCodec{}, EncodeSlice(PTFCodec{}, nil, recs))
		if err != nil || len(out) != n {
			return false
		}
		for i := range recs {
			same := out[i] == recs[i] ||
				(math.IsNaN(out[i].Score) && math.IsNaN(recs[i].Score) && out[i].ObjID == recs[i].ObjID)
			if !same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFunctions(t *testing.T) {
	if ComparePTF(PTFRecord{Score: 1}, PTFRecord{Score: 2}) >= 0 {
		t.Fatal("ComparePTF order")
	}
	// Payload must never influence comparisons.
	a := PTFRecord{Score: 1, ObjID: 9}
	b := PTFRecord{Score: 1, ObjID: 2}
	if ComparePTF(a, b) != 0 {
		t.Fatal("ComparePTF inspected payload")
	}
	if CompareParticles(Particle{ClusterID: -5}, Particle{ClusterID: 3}) >= 0 {
		t.Fatal("CompareParticles order")
	}
}

// switchCompare is the comparator CompareOrdered replaced.
func switchCompare[K float64 | int64 | uint64](a, b K) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestCompareOrderedMatchesSwitch pins the branchless comparator to the
// switch it replaced on every pair of a table that holds the float
// corner cases — NaN (equal to everything), ±0 (equal), ±Inf, the
// smallest subnormal — and the integer extremes.
func TestCompareOrderedMatchesSwitch(t *testing.T) {
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
		-1, 1, 0.5, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64}
	for _, a := range floats {
		for _, b := range floats {
			if got, want := CompareOrdered(a, b), switchCompare(a, b); got != want {
				t.Errorf("CompareOrdered(%v, %v) = %d, the switch says %d", a, b, got, want)
			}
			pa, pb := PTFRecord{Score: a, ObjID: 1}, PTFRecord{Score: b, ObjID: 2}
			if got, want := ComparePTF(pa, pb), switchCompare(a, b); got != want {
				t.Errorf("ComparePTF(%v, %v) = %d, the switch says %d", a, b, got, want)
			}
		}
	}
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for _, a := range ints {
		for _, b := range ints {
			if got, want := CompareOrdered(a, b), switchCompare(a, b); got != want {
				t.Errorf("CompareOrdered(%d, %d) = %d, the switch says %d", a, b, got, want)
			}
			if got, want := CompareParticles(Particle{ClusterID: a}, Particle{ClusterID: b}), switchCompare(a, b); got != want {
				t.Errorf("CompareParticles(%d, %d) = %d, the switch says %d", a, b, got, want)
			}
			if got, want := CompareOrdered(uint64(a), uint64(b)), switchCompare(uint64(a), uint64(b)); got != want {
				t.Errorf("CompareOrdered(%d, %d) = %d, the switch says %d", uint64(a), uint64(b), got, want)
			}
		}
	}
}

func TestFuncsAdapter(t *testing.T) {
	type pair struct{ A, B uint8 }
	c := Funcs[pair]{
		Width:     2,
		MarshalFn: func(dst []byte, r pair) { dst[0], dst[1] = r.A, r.B },
		UnmarshFn: func(src []byte) pair { return pair{src[0], src[1]} },
	}
	buf := EncodeSlice[pair](c, nil, []pair{{1, 2}, {3, 4}})
	out, err := DecodeSlice[pair](c, buf)
	if err != nil || len(out) != 2 || out[1] != (pair{3, 4}) {
		t.Fatalf("adapter round trip failed: %v %v", out, err)
	}
}

func BenchmarkEncodeDecodePTF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]PTFRecord, 1<<14)
	for i := range recs {
		recs[i] = PTFRecord{Score: rng.Float64(), ObjID: rng.Uint64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := EncodeSlice(PTFCodec{}, nil, recs)
		if _, err := DecodeSlice(PTFCodec{}, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeSliceMatchesMarshalLoop pins EncodeSlice — the View memcpy
// on a little-endian host — to the byte-exact output of the per-record
// Marshal loop, including the append-to-existing-prefix contract.
func TestEncodeSliceMatchesMarshalLoop(t *testing.T) {
	generic := func(c Codec[float64], dst []byte, recs []float64) []byte {
		sz := c.Size()
		off := len(dst)
		dst = append(dst, make([]byte, sz*len(recs))...)
		for _, r := range recs {
			c.Marshal(dst[off:off+sz], r)
			off += sz
		}
		return dst
	}
	recs := []float64{0, 1.5, -2.25, math.Inf(1), math.Pi}
	prefix := []byte{0xde, 0xad}
	want := generic(Float64{}, append([]byte(nil), prefix...), recs)
	got := EncodeSlice(Float64{}, append([]byte(nil), prefix...), recs)
	if !bytes.Equal(want, got) {
		t.Fatalf("Float64 fast path diverges:\nwant %x\ngot  %x", want, got)
	}

	tagged := []Tagged{{Key: 1.5, Rank: 3, Index: -7}, {Key: -9, Rank: 0, Index: 1 << 30}}
	wantT := make([]byte, 0)
	for _, r := range tagged {
		buf := make([]byte, 16)
		TaggedCodec{}.Marshal(buf, r)
		wantT = append(wantT, buf...)
	}
	gotT := EncodeSlice(TaggedCodec{}, nil, tagged)
	if !bytes.Equal(wantT, gotT) {
		t.Fatalf("Tagged fast path diverges:\nwant %x\ngot  %x", wantT, gotT)
	}
}
