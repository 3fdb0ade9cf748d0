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

func TestBitonicSortPowerOfTwo(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		in := makeIn(int64(p), p, 64)
		out := runDistributed(t, p, in, func(c *comm.Comm, local []float64) ([]float64, error) {
			return Sort(c, local, f64, cmpF)
		})
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
	out := runDistributed(t, p, in, func(c *comm.Comm, local []float64) ([]float64, error) {
		return Sort(c, local, f64, cmpF)
	})
	verifyGlobal(t, in, out)
}

func TestBitonicSortRejectsNonPowerOfTwo(t *testing.T) {
	in := makeIn(3, 3, 16)
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		_, err := Sort(c, append([]float64(nil), in[c.Rank()]...), f64, cmpF)
		if err == nil {
			return commError("non-power-of-two accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type commError string

func (e commError) Error() string { return string(e) }

func TestBitonicSortRejectsRaggedBlocks(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		local := make([]float64, 4+c.Rank()) // ragged
		_, err := Sort(c, local, f64, cmpF)
		if err == nil {
			return commError("ragged blocks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

func TestDistributedSortDispatch(t *testing.T) {
	// Uniform power-of-two: served by the bitonic network. Ragged:
	// served by gather-sort. Both must sort, and both return the
	// gathered sizes, which are every rank's input and output lengths.
	for _, in := range [][][]float64{makeIn(7, 4, 32), {{3, 1}, {2}, {5, 4, 0}, {}}} {
		out := runDistributed(t, 4, in, func(c *comm.Comm, local []float64) ([]float64, error) {
			sorted, sizes, err := DistributedSort(c, local, f64, cmpF)
			for r, n := range sizes {
				if int(n) != len(in[r]) {
					t.Errorf("rank %d sees size %d for rank %d, which holds %d", c.Rank(), n, r, len(in[r]))
				}
			}
			return sorted, err
		})
		verifyGlobal(t, in, out)
		for r := range out {
			if len(out[r]) != len(in[r]) {
				t.Fatalf("rank %d: block size changed %d -> %d", r, len(in[r]), len(out[r]))
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
			_, err := Sort(c, append([]float64(nil), in[c.Rank()]...), f64, cmpF)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
