package algo

import (
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/comm"
	"sdssort/internal/workload"
)

// refines are the two drivers' histogram refinements: HykSort's at
// eight groups (seed 32, exact cuts, three rounds) and HSS's.
var refines = []struct {
	name string
	rf   refine
}{{"hyksort", hykRefine(8)}, {"hss", hssRefine}}

// splittersOn runs histogramSplitters for nsplit cuts on p ranks over
// gen's sorted records, checks every rank got the same splitters, and
// returns them with rank 0's stats.
func splittersOn(t *testing.T, p, nsplit int, rf refine, gen func(rank int) []float64) ([]float64, splitStats) {
	t.Helper()
	sps := make([][]float64, p)
	var st splitStats
	err := cluster.Run(cluster.Topology{Nodes: p, CoresPerNode: 1}, func(c *comm.Comm) error {
		data := gen(c.Rank())
		slices.Sort(data)
		sp, s, err := histogramSplitters(c, data, nsplit, rf, f64, cmpF64)
		if c.Rank() == 0 {
			st = s
		}
		sps[c.Rank()] = sp
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if !slices.Equal(sps[r], sps[0]) {
			t.Fatalf("rank %d splitters %v differ from rank 0's %v", r, sps[r], sps[0])
		}
	}
	return sps[0], st
}

func TestHistogramSplittersUniform(t *testing.T) {
	for _, tc := range refines {
		t.Run(tc.name, func(t *testing.T) {
			sp, st := splittersOn(t, 4, 7, tc.rf, func(rank int) []float64 {
				return workload.Uniform(int64(rank+10), 2000)
			})
			if len(sp) != 7 || !slices.IsSorted(sp) {
				t.Fatalf("splitters %v: want 7, sorted", sp)
			}
			// Uniform: each splitter near its target quantile.
			for i, s := range sp {
				if want := float64(i+1) / 8; s < want-0.1 || s > want+0.1 {
					t.Errorf("splitter %d = %v, want ≈ %v", i, s, want)
				}
			}
			// HSS's tolerance is met on every cut before the round cap.
			if tc.rf.eps > 0 && (st.resolved != 7 || st.rounds >= tc.rf.rounds) {
				t.Errorf("resolved %d of 7 cuts in %d rounds (tolerance %d)", st.resolved, st.rounds, st.tol)
			}
		})
	}
}

func TestHistogramSplittersCollapseOnDuplicates(t *testing.T) {
	// With 80% of records equal, no candidate separates the equal keys:
	// a cut stays unresolved and the refinement emits the same splitter
	// value repeatedly — HykSort's and HSS's failure precondition.
	for _, tc := range refines {
		t.Run(tc.name, func(t *testing.T) {
			gen := func(rank int) []float64 {
				rng := rand.New(rand.NewSource(int64(rank + 20)))
				data := make([]float64, 1500)
				for i := range data {
					if rng.Float64() < 0.8 {
						data[i] = 7
					} else {
						data[i] = rng.Float64() * 20
					}
				}
				return data
			}
			sp, st := splittersOn(t, 4, 7, tc.rf, gen)
			var keys []float64
			for r := range 4 {
				keys = append(keys, gen(r)...)
			}
			slices.Sort(keys)
			if n := len(slices.Compact(keys)); st.candidates > n {
				t.Errorf("pool of %d candidates, but the input has only %d distinct keys", st.candidates, n)
			}
			if st.resolved >= 7 {
				t.Errorf("all %d cuts resolved on duplicate-heavy keys", st.resolved)
			}
			if n := len(slices.DeleteFunc(slices.Clone(sp), func(v float64) bool { return v != 7 })); n < 2 {
				t.Errorf("splitters %v: want ≥ 2 on the duplicated value", sp)
			}
		})
	}
}

func TestHistogramSplittersAllEqualStopsAtOnce(t *testing.T) {
	// One value everywhere: the seed pool holds it once, the first
	// round's probes find nothing new, and refinement stops there.
	for _, tc := range refines {
		t.Run(tc.name, func(t *testing.T) {
			sp, st := splittersOn(t, 8, 7, tc.rf, func(int) []float64 {
				data := make([]float64, 1000)
				for i := range data {
					data[i] = 3
				}
				return data
			})
			if st.rounds != 1 || st.candidates != 1 {
				t.Errorf("all-equal input: %d rounds, %d candidates; want 1 and 1", st.rounds, st.candidates)
			}
			if len(sp) != 7 || sp[0] != 3 || sp[6] != 3 {
				t.Errorf("splitters %v: want 7 copies of 3", sp)
			}
		})
	}
}

func TestHistogramSplittersEmpty(t *testing.T) {
	for _, tc := range refines {
		t.Run(tc.name, func(t *testing.T) {
			sp, st := splittersOn(t, 4, 3, tc.rf, func(int) []float64 { return nil })
			if len(sp) != 0 || st.rounds != 0 {
				t.Fatalf("empty data produced splitters %v in %d rounds", sp, st.rounds)
			}
		})
	}
}
