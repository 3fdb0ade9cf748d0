package radix

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/psort"
)

var u64 = codec.Uint64{}

func ident(v uint64) uint64 { return v }

func TestLSDSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 10000} {
		data := make([]uint64, n)
		for i := range data {
			data[i] = rng.Uint64()
		}
		want := append([]uint64(nil), data...)
		slices.Sort(want)
		LSDSort(data, ident)
		if !slices.Equal(data, want) {
			t.Fatalf("n=%d mismatch", n)
		}
	}
}

func TestLSDSortSmallUniverse(t *testing.T) {
	// Exercises the skip-pass fast path (most bytes identical).
	rng := rand.New(rand.NewSource(2))
	data := make([]uint64, 5000)
	for i := range data {
		data[i] = uint64(rng.Intn(7))
	}
	want := append([]uint64(nil), data...)
	slices.Sort(want)
	LSDSort(data, ident)
	if !slices.Equal(data, want) {
		t.Fatal("mismatch")
	}
}

func TestLSDSortProperty(t *testing.T) {
	f := func(data []uint64) bool {
		want := append([]uint64(nil), data...)
		slices.Sort(want)
		cp := append([]uint64(nil), data...)
		LSDSort(cp, ident)
		return slices.Equal(cp, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLSDSortBufScratch pins the scratch contract the sort's run relies
// on: a slab with room is the one used and handed back, a missing or
// short one is replaced, and keys that agree on every digit decide that
// before anything is allocated. It also counts key calls — one
// histogram read plus one per record per executed pass.
func TestLSDSortBufScratch(t *testing.T) {
	type rec struct {
		key uint64
		seq int
	}
	const n = 3000
	rng := rand.New(rand.NewSource(4))
	calls := 0
	key := func(r rec) uint64 { calls++; return r.key }
	for _, tc := range []struct {
		name   string
		gen    func() uint64
		passes int
	}{
		{"one digit", func() uint64 { return uint64(rng.Intn(1 << digitBits)) }, 1},
		{"two digits", func() uint64 { return uint64(rng.Intn(1 << (2 * digitBits))) }, 2},
		{"every digit", rng.Uint64, digits},
	} {
		data := make([]rec, n)
		for i := range data {
			data[i] = rec{tc.gen(), i}
		}
		want := slices.Clone(data)
		slices.SortStableFunc(want, func(a, b rec) int { return cmp.Compare(a.key, b.key) })
		buf := make([]rec, n+5)
		calls = 0
		got := LSDSortBuf(data, buf, key)
		if !slices.Equal(data, want) {
			t.Fatalf("%s: not the stable sort by key", tc.name)
		}
		if &got[0] != &buf[0] || cap(got) != cap(buf) {
			t.Errorf("%s: a scratch with room was not the one handed back", tc.name)
		}
		if most := n*(1+tc.passes) + 1; calls > most {
			t.Errorf("%s: %d key calls for %d records and %d passes, want at most %d", tc.name, calls, n, tc.passes, most)
		}
	}

	data := make([]rec, n)
	for i := range data {
		data[i] = rec{rng.Uint64(), i}
	}
	if got := LSDSortBuf(slices.Clone(data), make([]rec, n-1), key); cap(got) < n {
		t.Errorf("short scratch: handed back a slab of %d records for %d", cap(got), n)
	}
	for i := range data {
		data[i].key = 42
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if got := LSDSortBuf(data, nil, key); got != nil {
			t.Error("constant keys: a scratch was allocated")
		}
	}); allocs != 0 {
		t.Errorf("constant keys: %v allocations, want none", allocs)
	}
	if !slices.IsSortedFunc(data, func(a, b rec) int { return cmp.Compare(a.seq, b.seq) }) {
		t.Error("constant keys: records moved")
	}
}

// TestLSDIntoLeavesSource: the three-slice form of the kernel, which the
// stable dispatch verifies its leaves from, must land the stable sort by
// key in dst whatever the number of passes — none, odd, even — and must
// only read src.
func TestLSDIntoLeavesSource(t *testing.T) {
	type rec struct {
		key uint64
		seq int
	}
	key := func(r rec) uint64 { return r.key }
	rng := rand.New(rand.NewSource(6))
	for passes, gen := range []func() uint64{
		func() uint64 { return 42 },
		func() uint64 { return uint64(rng.Intn(1 << digitBits)) },
		func() uint64 { return uint64(rng.Intn(1 << (2 * digitBits))) },
		func() uint64 { return uint64(rng.Intn(1 << (3 * digitBits))) },
	} {
		for _, n := range []int{0, 1, 2, 1000} {
			src := make([]rec, n)
			for i := range src {
				src[i] = rec{gen(), i}
			}
			orig := slices.Clone(src)
			want := slices.Clone(src)
			slices.SortStableFunc(want, func(a, b rec) int { return cmp.Compare(a.key, b.key) })
			dst, spare := make([]rec, n), make([]rec, n)
			lsdInto(src, dst, spare, key)
			if !slices.Equal(dst, want) {
				t.Errorf("%d passes, n=%d: dst is not the stable sort by key", passes, n)
			}
			if !slices.Equal(src, orig) {
				t.Errorf("%d passes, n=%d: src was written", passes, n)
			}
		}
	}
}

func TestFloat64KeyOrderPreserving(t *testing.T) {
	vals := []float64{-1e300, -3.5, math.Copysign(0, -1), 0, 1e-10, 2, 7.25, 1e300}
	for i := 1; i < len(vals); i++ {
		if !(codec.Float64Key(vals[i-1]) <= codec.Float64Key(vals[i])) {
			t.Fatalf("order broken between %v and %v", vals[i-1], vals[i])
		}
	}
	f := func(a, b float64) bool {
		if a != a || b != b { // skip NaN
			return true
		}
		if a < b {
			return codec.Float64Key(a) < codec.Float64Key(b)
		}
		if a > b {
			return codec.Float64Key(a) > codec.Float64Key(b)
		}
		return codec.Float64Key(a) == codec.Float64Key(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelRadixSort(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(p)))
		in := make([][]uint64, p)
		for r := range in {
			rows := make([]uint64, 500)
			for i := range rows {
				rows[i] = rng.Uint64()
			}
			in[r] = rows
		}
		topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
		out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]uint64, error) {
			local := append([]uint64(nil), in[c.Rank()]...)
			return Sort(c, local, u64, ident)
		})
		if err != nil {
			t.Fatal(err)
		}
		var flatIn, flatOut []uint64
		for _, part := range in {
			flatIn = append(flatIn, part...)
		}
		for _, part := range out {
			flatOut = append(flatOut, part...)
		}
		if !slices.IsSorted(flatOut) {
			t.Fatalf("p=%d: not sorted", p)
		}
		slices.Sort(flatIn)
		if !slices.Equal(flatIn, flatOut) {
			t.Fatalf("p=%d: not a permutation", p)
		}
	}
}

func TestParallelRadixClusteredKeys(t *testing.T) {
	// Keys concentrated in a narrow band of the top-bit space: the
	// histogram cut must still produce a legal partition.
	const p = 4
	rng := rand.New(rand.NewSource(9))
	in := make([][]uint64, p)
	for r := range in {
		rows := make([]uint64, 400)
		for i := range rows {
			rows[i] = uint64(1)<<52 + uint64(rng.Intn(1000))
		}
		in[r] = rows
	}
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]uint64, error) {
		local := append([]uint64(nil), in[c.Rank()]...)
		return Sort(c, local, u64, ident)
	})
	if err != nil {
		t.Fatal(err)
	}
	var flat []uint64
	for _, part := range out {
		flat = append(flat, part...)
	}
	if !slices.IsSorted(flat) {
		t.Fatal("not sorted")
	}
	if len(flat) != p*400 {
		t.Fatalf("lost records: %d", len(flat))
	}
}

// lsdInto is the kernel's three-slice form with a key func: src's
// records, stably sorted by key, land in dst; the passes run through
// spare and dst (each len(src) records) and src is only read.
func lsdInto[T any](src, dst, spare []T, key func(T) uint64) {
	var s sorter[T]
	s.fn = key
	s.sort(src, dst, spare, s.survey(src, 64))
}

// rec2 is a record whose key field is its second word, raw, decoded as
// fieldCodec declares: a zero-copy codec with its key at offset 8.
type rec2 struct{ seq, raw uint64 }

type fieldCodec struct{ enc codec.KeyEnc }

func (fieldCodec) Size() int      { return 16 }
func (fieldCodec) ZeroCopy() bool { return true }
func (fieldCodec) Marshal(dst []byte, r rec2) {
	binary.LittleEndian.PutUint64(dst, r.seq)
	binary.LittleEndian.PutUint64(dst[8:], r.raw)
}
func (fieldCodec) Unmarshal(src []byte) rec2 {
	return rec2{binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])}
}
func (c fieldCodec) Uint64Key(r rec2) uint64       { return c.enc.Decode(r.raw) }
func (c fieldCodec) KeyField() (int, codec.KeyEnc) { return 8, c.enc }

// rawOf is the field bits that decode to key under enc.
func rawOf(enc codec.KeyEnc, key uint64) uint64 {
	switch {
	case enc == codec.KeyInt, enc == codec.KeyFloat && key>>63 == 1:
		return key ^ 1<<63
	case enc == codec.KeyFloat:
		return ^key
	}
	return key
}

// oneBucket is the most rec2 records the kernel sorts as one bucket.
const oneBucket = bucketBytes / 16

// FuzzRadixKernel holds both forms of the kernel — in place, and into a
// second buffer — to slices.SortStableFunc by key, reading the key in
// place and through the key func, on inputs either side of the MSD
// cutoff whose keys differ only in bit 63, only in bit 0, share a long
// prefix, crowd into one MSD bucket, or repeat a few values; the second
// form must leave its source bit for bit as it was.
func FuzzRadixKernel(f *testing.F) {
	for shape := uint8(0); shape < 6; shape++ {
		for _, n := range []uint32{0, 1, 2, tiny, tiny + 1, 1000, oneBucket, oneBucket + 1, 2*oneBucket + 77} {
			f.Add(int64(shape)+int64(n), n, shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint32, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		n %= 3 * oneBucket
		base := rng.Uint64()
		gen := []func() uint64{
			rng.Uint64,
			func() uint64 { return base&^(1<<63) | rng.Uint64()&(1<<63) },
			func() uint64 { return base&^1 | rng.Uint64()&1 },
			func() uint64 { return base&^(1<<20-1) | rng.Uint64()&(1<<20-1) },
			func() uint64 { // nine in ten under one 20-bit prefix
				if rng.Intn(10) == 0 {
					return rng.Uint64()
				}
				return base&^(1<<44-1) | rng.Uint64()&(1<<44-1)
			},
			func() uint64 { return base + uint64(rng.Intn(5))<<40 },
		}[shape%6]
		enc := codec.KeyEnc(uint64(seed) % 3)
		cd := fieldCodec{enc}
		src := make([]rec2, n)
		for i := range src {
			src[i] = rec2{uint64(i), rawOf(enc, gen())}
		}
		orig, want := slices.Clone(src), slices.Clone(src)
		slices.SortStableFunc(want, func(a, b rec2) int { return cmp.Compare(cd.Uint64Key(a), cd.Uint64Key(b)) })
		for _, inPlace := range []bool{true, false} {
			var s sorter[rec2]
			s.fn = cd.Uint64Key
			if inPlace {
				s.fn, s.off, s.enc = nil, 8, enc
			}
			data := slices.Clone(src)
			s.inPlace(data, nil, 0)
			if !slices.Equal(data, want) {
				t.Fatalf("in place (field read %v, enc %d, shape %d, n %d): not the stable sort by key", inPlace, enc, shape, n)
			}
			dst, spare := make([]rec2, n), make([]rec2, n)
			s.sort(src, dst, spare, s.survey(src, 64))
			if !slices.Equal(dst, want) {
				t.Fatalf("into (field read %v, enc %d, shape %d, n %d): not the stable sort by key", inPlace, enc, shape, n)
			}
			if !slices.Equal(src, orig) {
				t.Fatalf("into (field read %v, enc %d, shape %d, n %d): src was written", inPlace, enc, shape, n)
			}
		}
	})
}

// TestKeyFieldHonoured: the kernel reads a declared key field in place
// only where it is the record's memory image and lies inside the record.
// The codec below declares the wrong field — the second word, where the
// key is the first — so the dispatch's sweep refuses exactly the sorts
// that read it.
func TestKeyFieldHonoured(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := make([]rec2, 1000)
	for i := range in {
		in[i] = rec2{rng.Uint64(), rng.Uint64()}
	}
	bySeq := func(a, b rec2) int { return cmp.Compare(a.seq, b.seq) }
	for _, tc := range []struct {
		off      int
		zeroCopy bool
		read     bool
	}{{8, true, true}, {8, false, false}, {9, true, false}, {-1, true, false}} {
		data := slices.Clone(in)
		_, sorted, _, _ := Dispatch[rec2](data, nil, wrongField{tc.off, tc.zeroCopy}, bySeq, false, 0)
		if sorted == tc.read {
			t.Errorf("field at %d, zero-copy %v: read in place %v, want %v", tc.off, tc.zeroCopy, !sorted, tc.read)
		}
	}
}

// wrongField keys rec2 by seq but declares raw, at off, as its key field.
type wrongField struct {
	off      int
	zeroCopy bool
}

func (wrongField) Size() int                       { return 16 }
func (w wrongField) ZeroCopy() bool                { return w.zeroCopy }
func (wrongField) Marshal(dst []byte, r rec2)      { fieldCodec{}.Marshal(dst, r) }
func (wrongField) Unmarshal(src []byte) rec2       { return fieldCodec{}.Unmarshal(src) }
func (wrongField) Uint64Key(r rec2) uint64         { return r.seq }
func (w wrongField) KeyField() (int, codec.KeyEnc) { return w.off, codec.KeyUint }

// TestDispatchRunGate: the run gate Dispatch reads off the keys is
// psort.Sortedness over the comparator, for keys that agree with it,
// stable or not — a stable dispatch included, whose first read covers H1
// only — and a gated sort leaves data as it came.
func TestDispatchRunGate(t *testing.T) {
	const n, runs = 4001, 32
	rng := rand.New(rand.NewSource(13))
	sorted := make([]uint64, n)
	for i := range sorted {
		sorted[i] = uint64(i) << 8
	}
	random := func(s []uint64) []uint64 {
		for i := range s {
			s[i] = rng.Uint64()
		}
		return s
	}
	// 125 runs of 16, each below the one before, after a sorted H1 that
	// ends above them all: the seam's descent is the one that tips
	// n/(descents+1) under runs.
	seam := slices.Clone(sorted[:n/2+1])
	for i := range n / 2 {
		seam = append(seam, uint64((124-i/16)*100+i%16))
	}
	for name, in := range map[string][]uint64{
		"sorted":                 sorted,
		"random":                 random(make([]uint64, n)),
		"sorted H1, random H2":   append(slices.Clone(sorted[:n/2+1]), random(make([]uint64, n/2))...),
		"sorted halves, swapped": append(slices.Clone(sorted[n/2+1:]), sorted[:n/2+1]...),
		"random H1, sorted H2":   append(random(make([]uint64, n/2+1)), sorted[n/2+1:]...),
		"the seam decides":       seam,
	} {
		want := psort.Sortedness(in, cmp.Compare[uint64]) >= runs
		for _, stable := range []bool{false, true} {
			data := slices.Clone(in)
			_, ok, _, gated := Dispatch(data, nil, u64, cmp.Compare[uint64], stable, runs)
			if gated != want || gated && !slices.Equal(data, in) || !gated && !ok {
				t.Errorf("%s, stable %v: gated %v sorted %v, want gated %v with data untouched", name, stable, gated, ok, want)
			}
		}
	}
}
