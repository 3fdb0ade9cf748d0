package radix

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
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
			return Sort(c, local, u64, ident, Options{})
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
		return Sort(c, local, u64, ident, Options{})
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
