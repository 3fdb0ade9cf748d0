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
	"sdssort/internal/workload"
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

// TestDispatchScratch pins the scratch contract the sort's run relies
// on: a scratch with room is the one the block lands in, the spent input
// takes its place, a missing or short one is replaced, and keys that
// already ascend are their own block before anything is allocated. It
// also counts key calls, which are reads: one for the survey, which
// counts no digit of a whole key; one to count the top two live digits
// on the grid anchored at the top of the keys' diff; one per executed
// pass; one for the insertion finish and its re-reads — one per record
// moved, up to the budget of two per record; one more to count the
// digits below the top two before a declined or overrun bucket's LSD
// loop; and one for a stable sweep. Keys in one digit take 1+1+1 reads,
// in two 1+1+2. Keys in every digit take the insertion finish, 1+1+2+1,
// ties in their top 22 bits moving a few records. Nine in ten under one
// 30-bit prefix decline it, 1+1+1+digits: the top two digits' counts
// foretell the ties, and the LSD loop runs alone. Keys over bit 63,
// whose anchored top two digits repeat one 6-bit value, tied in groups
// their counts do not show, overrun its budget into the LSD loop over
// every digit, 1+1+2+1+1+digits. So do eight buckets of a split, bits 61
// up apart, after the split's own three reads (survey, plan, scatter):
// their survey counts their top two digits, and the LSD loop takes one
// more read to count the rest.
func TestDispatchScratch(t *testing.T) {
	const n, split = 3000, 8 << 13 // split: eight 8192-record buckets of digits anchored at bit 61
	rng := rand.New(rand.NewSource(4))
	calls := 0
	cd := countingCodec{&calls}
	byKey := func(a, b rec2) int { return cmp.Compare(a.raw, b.raw) }
	for _, tc := range []struct {
		name  string
		n     int
		gen   func() uint64
		reads int // per record, a stable sweep's aside
		moved int // re-reads past reads·n
		st    Stats
	}{
		{"one digit", n, func() uint64 { return uint64(rng.Intn(1 << digitBits)) }, 1 + 1 + 1, 0, Stats{}},
		{"two digits", n, func() uint64 { return uint64(rng.Intn(1 << (2 * digitBits))) }, 1 + 1 + 2, 0, Stats{}},
		{"every digit", n, rng.Uint64, 1 + 1 + 2 + 1, 8, Stats{Finished: 1}},
		{"tied top digits", n, func() uint64 {
			if rng.Intn(10) == 0 {
				return rng.Uint64()
			}
			return 42<<34 | rng.Uint64()&(1<<34-1)
		}, 1 + 1 + 1 + digits, 0, Stats{Declined: 1}},
		{"past the budget", n, func() uint64 { // the grid anchors at 64: digits from bit 53 and 42
			a := rng.Uint64() % 64
			return rng.Uint64()>>63<<63 | a<<53 | a<<42 | rng.Uint64()&(1<<42-1)
		}, 1 + 1 + 2 + 1 + 1 + digits, 2 * n, Stats{Overrun: 1}},
		{"past the budget after a split", split, func() uint64 {
			a := rng.Uint64() % 64
			return rng.Uint64()>>61<<61 | a<<50 | a<<39 | rng.Uint64()&(1<<39-1)
		}, 3 + 1 + 2 + 1 + 1 + digits, 2 * split, Stats{Overrun: 8}},
	} {
		n := tc.n
		for _, stable := range []bool{false, true} {
			data := make([]rec2, n)
			for i := range data {
				data[i] = rec2{uint64(i), tc.gen()}
			}
			in, want := slices.Clone(data), slices.Clone(data)
			slices.SortStableFunc(want, byKey)
			scratch := make([]rec2, 2*n+5)
			buf := scratch
			calls = 0
			block, v, st := Dispatch[rec2](data, &scratch, cd, byKey, stable, 0)
			if v != Sorted || !slices.Equal(block, want) || !slices.Equal(data, in) {
				t.Fatalf("%s, stable %v: verdict %d; want the stable sort by key in the block and data as it came", tc.name, stable, v)
			}
			if &block[0] != &buf[0] || &scratch[0] != &data[0] || cap(scratch) != n {
				t.Errorf("%s, stable %v: the block is not in the scratch with room, or the spent input did not take its place", tc.name, stable)
			}
			reads := tc.reads
			if stable {
				reads++
			}
			if most := n*reads + tc.moved; calls > most {
				t.Errorf("%s, stable %v: %d key calls for %d records, want at most %d", tc.name, stable, calls, n, most)
			}
			if st != tc.st {
				t.Errorf("%s, stable %v: %+v, want %+v", tc.name, stable, st, tc.st)
			}
		}
	}

	data := make([]rec2, n)
	for i := range data {
		data[i] = rec2{uint64(i), rng.Uint64()}
	}
	short := make([]rec2, n-1)
	if block, _, _ := Dispatch[rec2](slices.Clone(data), &short, cd, byKey, false, 0); cap(block) < n {
		t.Errorf("short scratch: a block of capacity %d for %d records", cap(block), n)
	}
	for i := range data {
		data[i].raw = 42
	}
	var none []rec2
	if allocs := testing.AllocsPerRun(5, func() {
		if block, v, _ := Dispatch[rec2](data, &none, cd, byKey, false, 0); v != Sorted || &block[0] != &data[0] || none != nil {
			t.Error("constant keys: not sorted where they lie, or a scratch was taken")
		}
	}); allocs != 0 {
		t.Errorf("constant keys: %v allocations, want none", allocs)
	}
}

// countingCodec keys rec2 by raw through Uint64Key, counting the calls;
// it declares no key field, so the kernel calls it for every key it reads.
type countingCodec struct{ calls *int }

func (countingCodec) Size() int                  { return 16 }
func (countingCodec) Marshal(dst []byte, r rec2) { fieldCodec{}.Marshal(dst, r) }
func (countingCodec) Unmarshal(src []byte) rec2  { return fieldCodec{}.Unmarshal(src) }
func (c countingCodec) Uint64Key(r rec2) uint64  { *c.calls++; return r.raw }

// TestLSDIntoLeavesSource: the kernel, which a refused sweep hands the
// untouched input back from, must land the stable sort by key in its
// block whatever the number of passes — none, odd, even — and must only
// read src.
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
			if block := lsdInto(src, key); !slices.Equal(block, want) {
				t.Errorf("%d passes, n=%d: the block is not the stable sort by key", passes, n)
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

// lsdInto is the kernel with a key func: it returns the block holding
// src's records, stably sorted by key; src is only read.
func lsdInto[T any](src []T, key func(T) uint64) []T {
	s := sorter[T]{fn: key}
	var scratch []T
	block, _ := s.into(src, &scratch, s.survey(src, whole))
	return block
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

// FuzzRadixKernel holds the kernel to slices.SortStableFunc by key,
// reading the key in place and through the key func, on inputs either
// side of the split cutoff whose keys differ only in bit 63, only in bit
// 0, share a long prefix, crowd into one aligned bucket, repeat a few
// values, square a uniform float, pile into one window value with
// distinct bits below — again within it, the split's recursion — tie in
// their top two digits, which declines the insertion finish, tie in
// groups those digits' counts do not show, which up to a bucket overruns
// the insertion into the LSD loop, or share a prefix above a bit the
// seed picks, where a whole key's grid anchors; src must stay bit for
// bit as it was. Seeds put that bit at every residue mod digitBits, so
// the lowest digit of the anchored grid takes every width.
func FuzzRadixKernel(f *testing.F) {
	const shapes = 11
	for shape := uint8(0); shape < shapes; shape++ {
		for _, n := range []uint32{0, 1, 2, tiny, tiny + 1, 1000, oneBucket, oneBucket + 1, 2*oneBucket + 77} {
			f.Add(int64(shape)+int64(n), n, shape)
		}
	}
	for b := int64(64 - digitBits + 1); b <= 64; b++ { // the prefix above bit b: seed%64 = b-1
		for _, n := range []uint32{1000, oneBucket} {
			f.Add(b-1, n, uint8(shapes-1))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint32, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		n %= 3 * oneBucket
		base, i := rng.Uint64(), 0
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
			func() uint64 { u := rng.Float64(); return codec.Float64Key(u * u) },
			func() uint64 { // one in 64 anywhere, one under the top window, one under two, the rest under three
				low := 16
				if i := rng.Intn(64); i < 3 {
					low = 64 - 16*i
				}
				return base&^(1<<low-1) | rng.Uint64()&(1<<low-1)
			},
			func() uint64 { // nine in ten of the first ¾ bucket under one 30-bit prefix, the rest anywhere
				if i++; i%10 == 0 || i > 3*oneBucket/4 {
					return rng.Uint64()
				}
				return base&^(1<<34-1) | rng.Uint64()&(1<<34-1)
			},
			func() uint64 { // the top two digits repeat one of ⅔√n values: a whole key's, over bit 63, which anchors them at bits 53 and 42, or, bits 61 up apart, a split's, groups of 1.5√n a bucket
				a := rng.Uint64() % uint64(1+2*math.Sqrt(float64(min(n, oneBucket)))/3)
				if n > oneBucket {
					return rng.Uint64()>>61<<61 | a<<50 | a<<39 | rng.Uint64()&(1<<39-1)
				}
				return rng.Uint64()>>63<<63 | a<<53 | a<<42 | rng.Uint64()&(1<<42-1)
			},
			func() uint64 { // a prefix above bit 1 + seed%64
				low := 1 + uint64(seed)%64
				return base&^(1<<low-1) | rng.Uint64()&(1<<low-1)
			},
		}[shape%shapes]
		enc := codec.KeyEnc(uint64(seed) % 3)
		cd := fieldCodec{enc}
		src := make([]rec2, n)
		for i := range src {
			src[i] = rec2{uint64(i), rawOf(enc, gen())}
		}
		orig, want := slices.Clone(src), slices.Clone(src)
		slices.SortStableFunc(want, func(a, b rec2) int { return cmp.Compare(cd.Uint64Key(a), cd.Uint64Key(b)) })
		for _, field := range []bool{true, false} {
			s := sorter[rec2]{fn: cd.Uint64Key}
			if field {
				s.fn, s.off, s.enc = nil, 8, enc
			}
			var scratch []rec2
			if block, _ := s.into(src, &scratch, s.survey(src, whole)); !slices.Equal(block, want) {
				t.Fatalf("field read %v, enc %d, shape %d, n %d: not the stable sort by key", field, enc, shape, n)
			}
			if !slices.Equal(src, orig) {
				t.Fatalf("field read %v, enc %d, shape %d, n %d: src was written", field, enc, shape, n)
			}
		}
	})
}

// TestDispatchAnchors: keys that share a random prefix above bit b and
// are random below it anchor a whole key's grid at b, so over every b
// its lowest digit takes every width. At one bucket past tiny, at room
// and at two rooms, which split, read in place and through the key func,
// stable or not, the block must be the stable sort by key and data as it
// came.
func TestDispatchAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	keys := make([]uint64, 2*room[uint64]())
	for b := 1; b <= 64; b++ {
		prefix, mask := rng.Uint64(), uint64(1)<<b-1
		for i := range keys {
			keys[i] = prefix&^mask | rng.Uint64()&mask
		}
		// The stable sort of keys: by key, then index; of keys[:n], its
		// indices below n.
		all := make([]int32, len(keys))
		for i := range all {
			all[i] = int32(i)
		}
		slices.SortFunc(all, func(x, y int32) int {
			if c := cmp.Compare(keys[x], keys[y]); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		order := func(n int) []int32 {
			return slices.DeleteFunc(slices.Clone(all), func(i int32) bool { return int(i) >= n })
		}
		anchors(t, b, keys, order, codec.Float64{}, func(_ int, k uint64) float64 { return math.Float64frombits(rawOf(codec.KeyFloat, k)) },
			func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		anchors(t, b, keys, order, codec.Int64{}, func(_ int, k uint64) int64 { return int64(rawOf(codec.KeyInt, k)) }, equal[int64])
		anchors(t, b, keys, order, u64, func(_ int, k uint64) uint64 { return k }, equal[uint64])
		anchors(t, b, keys, order, countingCodec{new(int)}, func(i int, k uint64) rec2 { return rec2{uint64(i), k} }, equal[rec2])
	}
}

func equal[T comparable](a, b T) bool { return a == b }

// anchors runs TestDispatchAnchors' sizes for one b and codec on records
// rec makes of their index and key.
func anchors[T any](t *testing.T, b int, keys []uint64, order func(n int) []int32, cd codec.Codec[T], rec func(i int, k uint64) T, eq func(x, y T) bool) {
	t.Helper()
	key, _ := codec.Uint64KeyOf(cd)
	byKey := func(x, y T) int { return cmp.Compare(key(x), key(y)) }
	for _, n := range []int{tiny + 1, room[T](), 2 * room[T]()} {
		data, want := make([]T, n), make([]T, n)
		for i := range data {
			if data[i] = rec(i, keys[i]); key(data[i]) != keys[i] {
				t.Fatalf("%T: a record made of key %#x has key %#x", cd, keys[i], key(data[i]))
			}
		}
		for j, i := range order(n) {
			want[j] = data[i]
		}
		in := slices.Clone(data)
		for _, stable := range []bool{false, true} {
			block, v, _ := Dispatch(data, new([]T), cd, byKey, stable, 0)
			if v != Sorted || !slices.EqualFunc(block, want, eq) || !slices.EqualFunc(data, in, eq) {
				t.Fatalf("%T, b %d, n %d, stable %v: verdict %d; want the stable sort by key in the block and data as it came", cd, b, n, stable, v)
			}
		}
	}
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
		_, v, _ := Dispatch(data, new([]rec2), wrongField{tc.off, tc.zeroCopy}, bySeq, false, 0)
		if sorted := v == Sorted; sorted == tc.read {
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
// stable or not, and a gated sort leaves data as it came.
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
	// 125 runs of 16, each below the one before, after a sorted first
	// half that ends above them all: the seam's descent is the one that
	// tips n/(descents+1) under runs.
	seam := slices.Clone(sorted[:n/2+1])
	for i := range n / 2 {
		seam = append(seam, uint64((124-i/16)*100+i%16))
	}
	for name, in := range map[string][]uint64{
		"sorted":                   sorted,
		"random":                   random(make([]uint64, n)),
		"sorted half, random half": append(slices.Clone(sorted[:n/2+1]), random(make([]uint64, n/2))...),
		"sorted halves, swapped":   append(slices.Clone(sorted[n/2+1:]), sorted[:n/2+1]...),
		"random half, sorted half": append(random(make([]uint64, n/2+1)), sorted[n/2+1:]...),
		"the seam decides":         seam,
	} {
		want := psort.Sortedness(in, cmp.Compare[uint64]) >= runs
		for _, stable := range []bool{false, true} {
			data := slices.Clone(in)
			_, v, _ := Dispatch(data, new([]uint64), u64, cmp.Compare[uint64], stable, runs)
			ok, gated := v == Sorted, v == Gated
			if gated != want || gated && !slices.Equal(data, in) || !gated && !ok {
				t.Errorf("%s, stable %v: gated %v sorted %v, want gated %v with data untouched", name, stable, gated, ok, want)
			}
		}
	}
}

// TestSplitFitsCache: on the workloads' own keys — 1 Mi uniform float64,
// 1 Mi PTF records, 256 Ki particles — the kernel makes exactly one
// DRAM-sized split pass. Every bucket plan lays out fits in bucketBytes
// unless its keys are all equal, so none splits again, and the dispatch
// takes no heavy-bucket spare.
func TestSplitFitsCache(t *testing.T) {
	splitFits(t, "uniform", workload.Uniform(1, 1<<20), codec.Float64{}, cmp.Compare[float64], false)
	splitFits(t, "ptf", workload.PTF(9, 1<<20), codec.PTFCodec{}, codec.ComparePTF, true)
	splitFits(t, "cosmology", workload.Cosmology(9, 1<<18), codec.ParticleCodec{}, codec.CompareParticles, false)
}

func splitFits[T any](t *testing.T, name string, data []T, cd codec.Codec[T], cmp func(a, b T) int, stable bool) {
	t.Helper()
	key, _ := codec.Uint64KeyOf(cd)
	s := sorter[T]{fn: key}
	f := s.survey(data, whole)
	if len(data) <= room[T]() || f.descents == 0 {
		t.Fatalf("%s: %d records take no split pass", name, len(data))
	}
	var tb tables
	shift, mask, _, nb := s.plan(data, f.diff, &tb)
	size, lo, hi := make([]int, nb), make([]uint64, nb), make([]uint64, nb)
	for b := range lo {
		lo[b] = math.MaxUint64
	}
	for _, r := range data {
		k := key(r)
		b := tb.win[k>>shift&mask]
		size[b]++
		lo[b], hi[b] = min(lo[b], k), max(hi[b], k)
	}
	for b := range size {
		if size[b] > room[T]() && lo[b] != hi[b] {
			t.Errorf("%s: bucket %d of %d holds %d records of distinct keys; %d fit in bucketBytes", name, b, nb, size[b], room[T]())
		}
	}
	if _, v, st := Dispatch(slices.Clone(data), new([]T), cd, cmp, stable, 0); v != Sorted || st.Spare != 0 {
		t.Errorf("%s: verdict %d, heavy spare of %d records; want sorted with none", name, v, st.Spare)
	}
}

// TestDispatchRefusalLeavesInput: a float64 dispatch that a sweep
// refuses — under a reversed comparator; under cmp.Compare, which puts
// NaNs first where the key puts them last; and under one that puts the
// positives first, which above the split cutoff only a seam between
// buckets shows — leaves data bit for bit as it came, below and above
// the cutoff, stable or not.
func TestDispatchRefusalLeavesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	comparators := map[string]func(a, b float64) int{
		"reversed":        func(a, b float64) int { return cmp.Compare(b, a) },
		"NaN first":       cmp.Compare[float64],
		"positives first": func(a, b float64) int { return cmp.Or(cmp.Compare(side(a), side(b)), cmp.Compare(a, b)) },
	}
	for _, n := range []int{1000, 3 * bucketBytes / 8} {
		for name, c := range comparators {
			in := make([]float64, n)
			for i := range in {
				in[i] = rng.NormFloat64()
				if i%16 == 0 && name == "NaN first" {
					in[i] = math.NaN()
				}
			}
			for _, stable := range []bool{false, true} {
				data := slices.Clone(in)
				if _, v, _ := Dispatch(data, new([]float64), codec.Float64{}, c, stable, 0); v != Refused {
					t.Fatalf("%s, n=%d, stable %v: verdict %d, want a refusal", name, n, stable, v)
				}
				if !slices.EqualFunc(data, in, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Errorf("%s, n=%d, stable %v: a refused dispatch wrote data", name, n, stable)
				}
			}
		}
	}
}

// side puts positives before negatives.
func side(x float64) int {
	if x >= 0 {
		return 0
	}
	return 1
}
