package pivots

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/partition"
	"sdssort/internal/workload"
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

func TestRegularSample(t *testing.T) {
	data := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	got := RegularSample(data, 4) // i·8/4: indices 2, 4, 6
	want := []float64{2, 4, 6}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if got := RegularSample[float64](nil, 4); got != nil {
		t.Fatalf("empty: got %v", got)
	}
	if got := RegularSample(data, 1); got != nil {
		t.Fatalf("k=1: got %v", got)
	}
	// Fewer records than k: still k-1 pivots, each record picked in
	// proportion to its share, so global pivot selection never starves
	// on tiny ranks.
	short := []float64{1, 2}
	got = RegularSample(short, 8)
	if want := []float64{1, 1, 1, 2, 2, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("short data: got %v want %v", got, want)
	}
	// n/k not whole: the picks reach the top of the block (the floored
	// stride 1 would pick indices 1…4 and leave 5…9 unsampled).
	ten := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got, want := RegularSample(ten, 6), []float64{1, 3, 5, 6, 8}; !slices.Equal(got, want) {
		t.Fatalf("n=10 k=6: got %v want %v", got, want)
	}
}

// TestRegularSampleIsStripePivots: the partition search is indexed by
// the very sample pivot selection draws, so the two must agree on every
// shape, n < k included.
func TestRegularSampleIsStripePivots(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 1000, 1001} {
			d := make([]float64, n)
			for i := range d {
				d[i] = float64(i / 3) // sorted, with duplicates
			}
			if got, want := partition.NewStripe(d, k, cmpF).Pivots, RegularSample(d, k); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: stripe pivots %v, regular sample %v", n, k, got, want)
			}
		}
	}
}

func TestSelectGlobalUniform(t *testing.T) {
	for _, p := range []int{2, 4, 8, 5} { // includes a non-power-of-two
		allPG := make([][]float64, p)
		topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
		err := cluster.Run(topo, func(c *comm.Comm) error {
			data := workload.Uniform(int64(c.Rank()+1), 1000)
			slices.Sort(data)
			pl := RegularSample(data, p)
			pg, err := SelectGlobal(c, pl, f64, cmpF)
			if err != nil {
				return err
			}
			allPG[c.Rank()] = pg
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every rank must hold the identical, sorted pivot vector.
		for r := 1; r < p; r++ {
			if !slices.Equal(allPG[r], allPG[0]) {
				t.Fatalf("p=%d: rank %d pivots differ", p, r)
			}
		}
		if len(allPG[0]) != p-1 {
			t.Fatalf("p=%d: %d pivots", p, len(allPG[0]))
		}
		if !slices.IsSorted(allPG[0]) {
			t.Fatalf("p=%d: pivots not sorted: %v", p, allPG[0])
		}
		// Uniform data: pivots should be roughly evenly spaced in [0,1].
		for i, pv := range allPG[0] {
			want := float64(i+1) / float64(p)
			if pv < want-0.15 || pv > want+0.15 {
				t.Errorf("p=%d: pivot %d = %v, want ≈ %v", p, i, pv, want)
			}
		}
	}
}

func TestSelectGlobalDuplicateHeavy(t *testing.T) {
	// 90% of all records share one value: most global pivots must
	// equal that value — the duplicated-pivot situation SdssPartition
	// detects.
	const p = 8
	pgOut := make([][]float64, p)
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		data := make([]float64, 800)
		for i := range data {
			if rng.Float64() < 0.9 {
				data[i] = 5
			} else {
				data[i] = rng.Float64() * 10
			}
		}
		slices.Sort(data)
		pg, err := SelectGlobal(c, RegularSample(data, p), f64, cmpF)
		if err != nil {
			return err
		}
		pgOut[c.Rank()] = pg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for _, pv := range pgOut[0] {
		if pv == 5 {
			dups++
		}
	}
	if dups < p/2 {
		t.Fatalf("expected most pivots to equal the popular value, got %d of %d: %v",
			dups, p-1, pgOut[0])
	}
	if len(partition.Runs(pgOut[0], cmpF)) == 0 {
		t.Fatal("expected a replicated pivot run")
	}
}

func TestSelectGlobalEmpty(t *testing.T) {
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		pg, err := SelectGlobal(c, nil, f64, cmpF)
		if err != nil {
			return err
		}
		if pg != nil {
			return fmt.Errorf("empty pool produced pivots %v", pg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
