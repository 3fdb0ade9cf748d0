package bitonic

import (
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
)

var f64 = codec.Float64{}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func runDistributed(t *testing.T, p int, in [][]float64,
	sorter func(*comm.Comm, []float64) ([]float64, error)) [][]float64 {
	t.Helper()
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
		return sorter(c, append([]float64(nil), in[c.Rank()]...))
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func verifyGlobal(t *testing.T, in, out [][]float64) {
	t.Helper()
	var flatIn, flatOut []float64
	for _, part := range in {
		flatIn = append(flatIn, part...)
	}
	for _, part := range out {
		flatOut = append(flatOut, part...)
	}
	if !slices.IsSorted(flatOut) {
		t.Fatal("not globally sorted")
	}
	slices.Sort(flatIn)
	if !slices.Equal(flatIn, flatOut) {
		t.Fatal("not a permutation")
	}
}

func makeIn(seed int64, p, perRank int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float64, p)
	for r := range in {
		rows := make([]float64, perRank)
		for i := range rows {
			rows[i] = rng.Float64()
		}
		in[r] = rows
	}
	return in
}

// distributedSort is DistributedSort as a runDistributed sorter.
func distributedSort(c *comm.Comm, local []float64) ([]float64, error) {
	sorted, _, err := DistributedSort(c, local, f64, cmpF)
	return sorted, err
}

func TestBitonicSortPowerOfTwo(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		in := makeIn(int64(p), p, 64)
		out := runDistributed(t, p, in, distributedSort)
		verifyGlobal(t, in, out)
		// Block sizes must be preserved.
		for r, part := range out {
			if len(part) != 64 {
				t.Fatalf("p=%d rank %d block size %d", p, r, len(part))
			}
		}
	}
}

func TestBitonicSortDuplicateHeavy(t *testing.T) {
	p := 8
	in := make([][]float64, p)
	for r := range in {
		rows := make([]float64, 32)
		for i := range rows {
			rows[i] = float64(i % 3)
		}
		in[r] = rows
	}
	out := runDistributed(t, p, in, distributedSort)
	verifyGlobal(t, in, out)
}

// TestBitonicSortRejectsNonPowerOfTwo: the network does not take a
// world whose size is not a power of two, and DistributedSort sorts
// such a world all the same.
func TestBitonicSortRejectsNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7} {
		if networkFits(make([]int64, p)) {
			t.Fatalf("p=%d: network accepted a non-power-of-two world", p)
		}
	}
	for _, p := range []int{1, 2, 4, 8} {
		if !networkFits(make([]int64, p)) {
			t.Fatalf("p=%d: network refused equal blocks", p)
		}
	}
	in := makeIn(3, 3, 16)
	verifyGlobal(t, in, runDistributed(t, 3, in, distributedSort))
}

// TestBitonicSortRejectsRaggedBlocks: the network does not take blocks
// of unequal size, and DistributedSort sorts them all the same.
func TestBitonicSortRejectsRaggedBlocks(t *testing.T) {
	if networkFits([]int64{4, 5}) || networkFits([]int64{4, 4, 4, 0}) {
		t.Fatal("network accepted ragged blocks")
	}
	in := make([][]float64, 2)
	for r := range in {
		in[r] = makeIn(int64(r), 1, 4+r)[0]
	}
	out := runDistributed(t, 2, in, distributedSort)
	verifyGlobal(t, in, out)
	for r := range out {
		if len(out[r]) != len(in[r]) {
			t.Fatalf("rank %d: block size changed %d -> %d", r, len(in[r]), len(out[r]))
		}
	}
}

func TestGatherSortArbitraryShapes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 6} {
		rng := rand.New(rand.NewSource(int64(p) * 11))
		in := make([][]float64, p)
		for r := range in {
			rows := make([]float64, rng.Intn(50))
			for i := range rows {
				rows[i] = rng.Float64()
			}
			in[r] = rows
		}
		out := runDistributed(t, p, in, func(c *comm.Comm, local []float64) ([]float64, error) {
			return GatherSort(c, local, f64, cmpF)
		})
		verifyGlobal(t, in, out)
		for r := range out {
			if len(out[r]) != len(in[r]) {
				t.Fatalf("p=%d rank %d: block size changed %d -> %d", p, r, len(in[r]), len(out[r]))
			}
		}
	}
}

// TestDistributedSortDispatch: equal blocks at a power-of-two p are
// served by the bitonic network, every other shape by gather-sort. Each
// must sort, keep every block's size, and return the gathered sizes.
func TestDistributedSortDispatch(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		rng := rand.New(rand.NewSource(int64(p) * 7))
		ragged := make([][]float64, p)
		for r := range ragged {
			ragged[r] = make([]float64, rng.Intn(50))
			for i := range ragged[r] {
				ragged[r][i] = float64(rng.Intn(20))
			}
		}
		for _, in := range [][][]float64{makeIn(int64(p), p, 32), ragged} {
			out := runDistributed(t, p, in, func(c *comm.Comm, local []float64) ([]float64, error) {
				sorted, sizes, err := DistributedSort(c, local, f64, cmpF)
				for r, n := range sizes {
					if int(n) != len(in[r]) {
						t.Errorf("p=%d: rank %d sees size %d for rank %d, which holds %d", p, c.Rank(), n, r, len(in[r]))
					}
				}
				return sorted, err
			})
			verifyGlobal(t, in, out)
			for r := range out {
				if len(out[r]) != len(in[r]) {
					t.Fatalf("p=%d rank %d: block size changed %d -> %d", p, r, len(in[r]), len(out[r]))
				}
			}
		}
	}
}

func BenchmarkBitonicSort(b *testing.B) {
	const p, perRank = 8, 2048
	in := makeIn(99, p, perRank)
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	b.SetBytes(int64(p * perRank * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := cluster.Run(topo, func(c *comm.Comm) error {
			_, err := distributedSort(c, append([]float64(nil), in[c.Rank()]...))
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
