package algo

import (
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/comm"
	"sdssort/internal/workload"
)

func runPSRS(t *testing.T, p int, in [][]float64) [][]float64 {
	t.Helper()
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
		local := append([]float64(nil), in[c.Rank()]...)
		return sortWith(NamePSRS, c, local, DefaultOptions())
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func verifyPSRS(t *testing.T, in, out [][]float64) {
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
		t.Fatal("not a permutation of the input")
	}
}

func TestPSRSUniform(t *testing.T) {
	for _, p := range []int{1, 2, 4, 9} {
		in := make([][]float64, p)
		for r := range in {
			in[r] = workload.Uniform(int64(r+1), 500)
		}
		verifyPSRS(t, in, runPSRS(t, p, in))
	}
}

func TestPSRSSkewedStillSorts(t *testing.T) {
	in := make([][]float64, 6)
	for r := range in {
		in[r] = workload.ZipfKeys(int64(r), 400, 1.4, 500)
	}
	verifyPSRS(t, in, runPSRS(t, 6, in))
}

func TestPSRSSkewImbalance(t *testing.T) {
	// On data dominated by one value PSRS piles everything onto one
	// rank — the classical-PSS defect the paper's introduction
	// describes.
	const p, perRank = 6, 600
	in := make([][]float64, p)
	for r := range in {
		rows := make([]float64, perRank)
		for i := range rows {
			if i%10 < 8 {
				rows[i] = 3
			} else {
				rows[i] = float64(i % 7)
			}
		}
		in[r] = rows
	}
	out := runPSRS(t, p, in)
	verifyPSRS(t, in, out)
	maxLoad := 0
	for _, part := range out {
		if len(part) > maxLoad {
			maxLoad = len(part)
		}
	}
	if maxLoad < 3*perRank {
		t.Errorf("expected load collapse on 80%%-duplicated data, max load %d", maxLoad)
	}
}

func TestPSRSEmpty(t *testing.T) {
	in := make([][]float64, 4)
	verifyPSRS(t, in, runPSRS(t, 4, in))
}

// TestSkewAwareVsClassicalAblation shows the point of the skew-aware
// partition by running the same duplicated input through sds and
// through psrs — the classical PSS comparison: same regular sampling,
// same shared exchange, plain upper-bound partition. With the classical
// partition duplicates concentrate on one rank; with the skew-aware one
// the Theorem-1 bound holds. Output correctness is unaffected either
// way.
func TestSkewAwareVsClassicalAblation(t *testing.T) {
	const p, perRank = 8, 600
	// 70% of all records share one key.
	in := make([][]float64, p)
	for r := range in {
		in[r] = make([]float64, perRank)
		for i := range in[r] {
			in[r][i] = float64(i % 13)
			if i%10 < 7 {
				in[r][i] = 5
			}
		}
	}
	maxLoad := func(name string) int {
		opt := DefaultOptions()
		opt.Core.TauM = 0
		topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
		out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
			return sortWith(name, c, append([]float64(nil), in[c.Rank()]...), opt)
		})
		if err != nil {
			t.Fatal(err)
		}
		verifyPSRS(t, in, out)
		m := 0
		for _, part := range out {
			m = max(m, len(part))
		}
		return m
	}
	aware, classical := maxLoad(NameSDS), maxLoad(NamePSRS)
	fair := perRank // N/p
	if aware > 4*fair+p {
		t.Errorf("skew-aware max load %d violates the 4N/p bound (%d)", aware, 4*fair)
	}
	if classical < 3*fair {
		t.Errorf("classical partition max load %d did not collapse (fair %d) — ablation shows no contrast", classical, fair)
	}
	if classical <= aware {
		t.Errorf("expected classical (%d) to be more imbalanced than skew-aware (%d)", classical, aware)
	}
}
