package algo

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/memlimit"
	"sdssort/internal/workload"
)

var f64 = codec.Float64{}

// sortWith runs one rank's share of a collective sort under the named
// driver.
func sortWith(name string, c *comm.Comm, local []float64, opt Options) ([]float64, error) {
	drv, err := New[float64](name)
	if err != nil {
		return nil, err
	}
	return drv.Sort(context.Background(), c, local, f64, cmpF64, opt)
}

func runHyk(t *testing.T, p int, in [][]float64, opt Options) ([][]float64, error) {
	t.Helper()
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	return cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
		local := append([]float64(nil), in[c.Rank()]...)
		return sortWith(NameHyk, c, local, opt)
	})
}

func checkGloballySorted(t *testing.T, in, out [][]float64) {
	t.Helper()
	var flatIn, flatOut []float64
	for _, part := range in {
		flatIn = append(flatIn, part...)
	}
	for _, part := range out {
		flatOut = append(flatOut, part...)
	}
	if len(flatIn) != len(flatOut) {
		t.Fatalf("count changed: %d -> %d", len(flatIn), len(flatOut))
	}
	if !slices.IsSorted(flatOut) {
		t.Fatal("output not globally sorted")
	}
	slices.Sort(flatIn)
	if !slices.Equal(flatIn, flatOut) {
		t.Fatal("output is not a permutation of the input")
	}
}

func uniformIn(seed int64, p, perRank int) [][]float64 {
	in := make([][]float64, p)
	for r := range in {
		in[r] = workload.Uniform(seed+int64(r), perRank)
	}
	return in
}

func TestHykSortUniform(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		in := uniformIn(1, p, 400)
		out, err := runHyk(t, p, in, DefaultOptions())
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkGloballySorted(t, in, out)
	}
}

func TestHykSortSmallK(t *testing.T) {
	// K < p forces multiple rounds (the hypercube recursion).
	opt := DefaultOptions()
	opt.K = 2
	in := uniformIn(2, 8, 300)
	out, err := runHyk(t, 8, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, in, out)

	opt.K = 3
	out, err = runHyk(t, 8, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, in, out)
}

func TestHykSortMildZipfStillSorts(t *testing.T) {
	// Low duplication (δ below ~1%) is the regime where the paper
	// says HykSort still works.
	in := make([][]float64, 8)
	for r := range in {
		in[r] = workload.ZipfKeys(int64(r), 400, 0.5, workload.DefaultZipfUniverse)
	}
	out, err := runHyk(t, 8, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, in, out)
}

func TestHykSortSkewImbalance(t *testing.T) {
	// Heavy duplication: the final loads must be far from balanced —
	// this is the defect SDS-Sort fixes. 60% of all records share one
	// key.
	const p, perRank = 8, 1000
	rng := rand.New(rand.NewSource(3))
	in := make([][]float64, p)
	for r := range in {
		rows := make([]float64, perRank)
		for i := range rows {
			if rng.Float64() < 0.6 {
				rows[i] = 5
			} else {
				rows[i] = rng.Float64() * 10
			}
		}
		in[r] = rows
	}
	out, err := runHyk(t, p, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, in, out)
	maxLoad := 0
	for _, part := range out {
		if len(part) > maxLoad {
			maxLoad = len(part)
		}
	}
	fair := perRank // N/p
	if maxLoad < 3*fair {
		t.Errorf("expected heavy imbalance on 60%%-duplicated data, max load %d vs fair %d", maxLoad, fair)
	}
}

func TestHykSortSkewOOM(t *testing.T) {
	// With a realistic per-rank budget the skew-collapsed rank dies of
	// OOM, the paper's Fig. 8/10 behaviour.
	const p, perRank = 8, 1000
	recBytes := int64(8)
	budget := memlimit.FairShareBudget(int64(p*perRank)*recBytes, p, 4)
	rng := rand.New(rand.NewSource(4))
	in := make([][]float64, p)
	for r := range in {
		rows := make([]float64, perRank)
		for i := range rows {
			if rng.Float64() < 0.8 {
				rows[i] = 5
			} else {
				rows[i] = rng.Float64() * 10
			}
		}
		in[r] = rows
	}
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		opt := DefaultOptions()
		opt.Core.Mem = memlimit.New(budget)
		local := append([]float64(nil), in[c.Rank()]...)
		_, err := sortWith(NameHyk, c, local, opt)
		return err
	})
	if err == nil {
		t.Fatal("expected an OOM failure on heavily duplicated data")
	}
	if !errors.Is(err, memlimit.ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory", err)
	}
}

func TestHykSortUniformWithinBudget(t *testing.T) {
	// The same budget is comfortable on uniform data: no OOM.
	const p, perRank = 8, 1000
	budget := memlimit.FairShareBudget(int64(p*perRank)*8, p, 4)
	in := uniformIn(5, p, perRank)
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		opt := DefaultOptions()
		opt.Core.Mem = memlimit.New(budget)
		local := append([]float64(nil), in[c.Rank()]...)
		_, err := sortWith(NameHyk, c, local, opt)
		return err
	})
	if err != nil {
		t.Fatalf("uniform data should fit the budget: %v", err)
	}
}

func TestHykSortEmptyAndTiny(t *testing.T) {
	in := [][]float64{{}, {1}, {}, {0.5, 0.2}}
	out, err := runHyk(t, 4, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, in, out)
}

func TestHykSortStagedRounds(t *testing.T) {
	// p=16 with K=4 forces exactly two k-way rounds (16 -> 4 -> 1);
	// the hypercube recursion must still deliver a global sort.
	opt := DefaultOptions()
	opt.K = 4
	in := uniformIn(6, 16, 250)
	out, err := runHyk(t, 16, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, in, out)
}
