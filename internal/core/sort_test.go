package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/memlimit"
	"sdssort/internal/workload"
)

var taggedCodec = codec.TaggedCodec{}

// compareTagged orders Tagged records by key only: a stable sort must
// leave equal keys in (Rank, Index) order.
func compareTagged(a, b codec.Tagged) int { return codec.CompareOrdered(a.Key, b.Key) }

// plainCodec hides every optional capability of a codec (ZeroCopyCapable,
// Uint64Keyer, KeyFielder) behind the bare Codec interface. The sort
// reads eligibility for the zero-copy exchange and the radix dispatch
// off the codec, so wrapping is how a test selects the marshal exchange
// and the comparison local ordering for the same records.
type plainCodec[T any] struct{ codec.Codec[T] }

// taggedCodecFor returns the Tagged codec with (zeroCopy) or without
// its capabilities.
func taggedCodecFor(zeroCopy bool) codec.Codec[codec.Tagged] {
	if zeroCopy {
		return taggedCodec
	}
	return plainCodec[codec.Tagged]{taggedCodec}
}

// makeTagged builds per-rank inputs of Tagged records with keys from
// gen, tagging each record with its (rank, index) origin.
func makeTagged(p, perRank int, gen func(rank, i int) float64) [][]codec.Tagged {
	in := make([][]codec.Tagged, p)
	for r := 0; r < p; r++ {
		rows := make([]codec.Tagged, perRank)
		for i := range rows {
			rows[i] = codec.Tagged{Key: gen(r, i), Rank: int32(r), Index: int32(i)}
		}
		in[r] = rows
	}
	return in
}

// runSort runs core.Sort on an in-process cluster shaped topo and
// returns the per-rank outputs.
func runSort(t *testing.T, topo cluster.Topology, in [][]codec.Tagged, opt Options) [][]codec.Tagged {
	t.Helper()
	return runSortCodec(t, topo, in, taggedCodec, opt)
}

// runSortCodec is runSort through a chosen codec for the same records.
func runSortCodec(t *testing.T, topo cluster.Topology, in [][]codec.Tagged, cd codec.Codec[codec.Tagged], opt Options) [][]codec.Tagged {
	t.Helper()
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		return Sort(c, local, cd, compareTagged, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSorted verifies the global concatenation is sorted and is a
// permutation of the input; with stable=true it also verifies equal
// keys keep (rank, index) order.
func checkSorted(t *testing.T, in, out [][]codec.Tagged, stable bool) {
	t.Helper()
	var flatIn, flatOut []codec.Tagged
	for _, part := range in {
		flatIn = append(flatIn, part...)
	}
	for _, part := range out {
		flatOut = append(flatOut, part...)
	}
	if len(flatIn) != len(flatOut) {
		t.Fatalf("record count changed: in %d out %d", len(flatIn), len(flatOut))
	}
	for i := 1; i < len(flatOut); i++ {
		if flatOut[i-1].Key > flatOut[i].Key {
			t.Fatalf("output not sorted at %d: %v then %v", i, flatOut[i-1], flatOut[i])
		}
		if stable && flatOut[i-1].Key == flatOut[i].Key {
			a, b := flatOut[i-1], flatOut[i]
			if a.Rank > b.Rank || (a.Rank == b.Rank && a.Index > b.Index) {
				t.Fatalf("stability violated at %d: %v then %v", i, a, b)
			}
		}
	}
	canon := func(a, b codec.Tagged) int {
		if c := compareTagged(a, b); c != 0 {
			return c
		}
		if a.Rank != b.Rank {
			return int(a.Rank - b.Rank)
		}
		return int(a.Index - b.Index)
	}
	slices.SortFunc(flatIn, canon)
	cp := append([]codec.Tagged(nil), flatOut...)
	slices.SortFunc(cp, canon)
	if !slices.Equal(flatIn, cp) {
		t.Fatal("output is not a permutation of the input")
	}
}

func uniformGen(seed int64) func(rank, i int) float64 {
	return func(rank, i int) float64 {
		rng := rand.New(rand.NewSource(seed + int64(rank)*7919 + int64(i)))
		return rng.Float64()
	}
}

func zipfGen(seed int64, alpha float64) func(rank, i int) float64 {
	z := workload.NewZipf(alpha, 200)
	return func(rank, i int) float64 {
		rng := rand.New(rand.NewSource(seed + int64(rank)*104729 + int64(i)))
		return float64(z.Sample(rng))
	}
}

func TestSortUniformFast(t *testing.T) {
	for _, topo := range []cluster.Topology{{Nodes: 1, CoresPerNode: 1}, {Nodes: 2, CoresPerNode: 2}, {Nodes: 4, CoresPerNode: 2}} {
		in := makeTagged(topo.Size(), 500, uniformGen(1))
		opt := DefaultOptions()
		out := runSort(t, topo, in, opt)
		checkSorted(t, in, out, false)
	}
}

func TestSortUniformStable(t *testing.T) {
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 400, func(rank, i int) float64 {
		// Few distinct keys force heavy duplication across ranks.
		return float64((rank*31 + i) % 5)
	})
	opt := DefaultOptions()
	opt.Stable = true
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, true)
}

func TestSortZipfSkewedFast(t *testing.T) {
	for _, alpha := range []float64{0.7, 1.4, 2.1} {
		topo := cluster.Topology{Nodes: 4, CoresPerNode: 2}
		in := makeTagged(topo.Size(), 600, zipfGen(2, alpha))
		out := runSort(t, topo, in, DefaultOptions())
		checkSorted(t, in, out, false)
	}
}

func TestSortZipfSkewedStable(t *testing.T) {
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 600, zipfGen(3, 2.1))
	opt := DefaultOptions()
	opt.Stable = true
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, true)
}

func TestSortAllEqualKeys(t *testing.T) {
	for _, stable := range []bool{false, true} {
		topo := cluster.Topology{Nodes: 4, CoresPerNode: 1}
		in := makeTagged(topo.Size(), 300, func(rank, i int) float64 { return 42 })
		opt := DefaultOptions()
		opt.Stable = stable
		out := runSort(t, topo, in, opt)
		checkSorted(t, in, out, stable)
	}
}

func TestSortAllEqualLoadBalance(t *testing.T) {
	// Theorem 1 in action: with every key equal, no rank may end up
	// with more than ~4N/p records.
	topo := cluster.Topology{Nodes: 8, CoresPerNode: 1}
	const perRank = 500
	in := makeTagged(topo.Size(), perRank, func(rank, i int) float64 { return 7 })
	out := runSort(t, topo, in, DefaultOptions())
	checkSorted(t, in, out, false)
	n := topo.Size() * perRank
	bound := 4*n/topo.Size() + topo.Size()
	for r, part := range out {
		if len(part) > bound {
			t.Errorf("rank %d holds %d records, above the 4N/p bound %d", r, len(part), bound)
		}
	}
}

func TestSortSingleRank(t *testing.T) {
	topo := cluster.Topology{Nodes: 1, CoresPerNode: 1}
	in := makeTagged(1, 1000, uniformGen(4))
	out := runSort(t, topo, in, DefaultOptions())
	checkSorted(t, in, out, false)
}

func TestSortEmptyInput(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	in := make([][]codec.Tagged, topo.Size())
	out := runSort(t, topo, in, DefaultOptions())
	checkSorted(t, in, out, false)
}

func TestSortRaggedInput(t *testing.T) {
	// Rank r holds r*100 records (rank 0 holds none).
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	in := make([][]codec.Tagged, topo.Size())
	for r := range in {
		rows := make([]codec.Tagged, r*100)
		rng := rand.New(rand.NewSource(int64(r)))
		for i := range rows {
			rows[i] = codec.Tagged{Key: rng.Float64(), Rank: int32(r), Index: int32(i)}
		}
		in[r] = rows
	}
	out := runSort(t, topo, in, DefaultOptions())
	checkSorted(t, in, out, false)
}

func TestSortPartiallyOrderedInput(t *testing.T) {
	// Pre-sorted per-rank input exercises the run-detection path.
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 800, func(rank, i int) float64 {
		return float64(rank*800 + i) // globally sorted already
	})
	opt := DefaultOptions()
	opt.RunThreshold = 8
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)
}

func TestSortOverlapPath(t *testing.T) {
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 500, zipfGen(5, 1.4))
	opt := DefaultOptions()
	opt.TauO = 1 << 20 // force overlap (p < TauO)
	opt.TauM = 0       // no node merge
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)
}

func TestSortSyncSortBranch(t *testing.T) {
	// p >= TauS forces the re-sort branch of local ordering.
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 500, uniformGen(6))
	opt := DefaultOptions()
	opt.TauO = 0 // force synchronous
	opt.TauS = 1 // force sort branch
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)

	opt.Stable = true
	out = runSort(t, topo, in, opt)
	checkSorted(t, in, out, true)
}

func TestSortMergeBranch(t *testing.T) {
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 500, uniformGen(7))
	opt := DefaultOptions()
	opt.TauO = 0
	opt.TauS = 1 << 20 // force merge branch
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)
}

func TestSortNodeMergePath(t *testing.T) {
	// A huge TauM forces node-level merging: outputs concentrate on
	// node leaders, the other ranks return empty.
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 4}
	in := makeTagged(topo.Size(), 300, uniformGen(8))
	opt := DefaultOptions()
	opt.TauM = 1 << 40
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)
	for r, part := range out {
		leader := r%topo.CoresPerNode == 0
		if !leader && len(part) != 0 {
			t.Errorf("non-leader rank %d holds %d records after node merge", r, len(part))
		}
	}
}

func TestSortNodeMergeStable(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 3}
	in := makeTagged(topo.Size(), 200, func(rank, i int) float64 { return float64(i % 3) })
	opt := DefaultOptions()
	opt.Stable = true
	opt.TauM = 1 << 40
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, true)
}

// TestSortNodeMergeStableCores sends a stable sort through the node
// merge with several workers: the chunks' duplicates of a replicated
// merge pivot are cut in one order across the chunks, so the output
// equals the one-worker merge record for record.
func TestSortNodeMergeStableCores(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 3}
	in := makeTagged(topo.Size(), 400, func(rank, i int) float64 {
		if i%10 < 7 {
			return 1
		}
		return float64((rank*31 + i) % 13)
	})
	opt := DefaultOptions()
	opt.Stable = true
	opt.TauM = 1 << 40
	want := runSort(t, topo, in, opt)
	checkSorted(t, in, want, true)
	for _, cores := range []int{2, 3} {
		opt.Cores = cores
		if got := runSort(t, topo, in, opt); !slices.EqualFunc(got, want, slices.Equal[[]codec.Tagged]) {
			t.Errorf("Cores=%d: stable output differs from Cores=1", cores)
		}
	}
}

func TestSortCoresParallelLocal(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	in := makeTagged(topo.Size(), 5000, zipfGen(9, 1.2))
	opt := DefaultOptions()
	opt.Cores = 4
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)
}

func TestSortOOMInjection(t *testing.T) {
	// A budget below the per-rank input size must fail immediately
	// with ErrOutOfMemory.
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		data := make([]codec.Tagged, 1000)
		opt := DefaultOptions()
		opt.Mem = memlimit.New(100) // bytes; far below 16KB input
		_, err := Sort(c, data, taggedCodec, compareTagged, opt)
		if !errors.Is(err, memlimit.ErrOutOfMemory) {
			return fmt.Errorf("got %v, want ErrOutOfMemory", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortInvalidOptions(t *testing.T) {
	topo := cluster.Topology{Nodes: 1, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		opt := Options{Cores: -1}
		_, err := Sort(c, nil, taggedCodec, compareTagged, opt)
		if err == nil {
			return errors.New("invalid options accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortManyRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	topo := cluster.Topology{Nodes: 16, CoresPerNode: 2} // 32 ranks
	in := makeTagged(topo.Size(), 400, zipfGen(10, 0.9))
	out := runSort(t, topo, in, DefaultOptions())
	checkSorted(t, in, out, false)

	opt := DefaultOptions()
	opt.Stable = true
	out = runSort(t, topo, in, opt)
	checkSorted(t, in, out, true)
}
