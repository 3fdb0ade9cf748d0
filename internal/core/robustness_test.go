package core

import (
	"fmt"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/workload"
)

// TestSortRobustnessMatrix sweeps the sort across the input patterns of
// the parallel-sorting literature × the option space: every combination
// must produce a sorted permutation, and the stable combinations must
// preserve input order of equal keys.
func TestSortRobustnessMatrix(t *testing.T) {
	const perRank = 400
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 2}
	p := topo.Size()

	patterns := []struct {
		name string
		gen  func(rank int) []float64
	}{
		{"uniform", func(r int) []float64 { return workload.Uniform(int64(r+1), perRank) }},
		{"gaussian", func(r int) []float64 { return workload.Gaussian(int64(r+1), perRank) }},
		{"zipf1.4", func(r int) []float64 { return workload.ZipfKeys(int64(r+1), perRank, 1.4, 500) }},
		{"fewdistinct", func(r int) []float64 { return workload.FewDistinct(int64(r+1), perRank, 3) }},
		{"allequal", func(r int) []float64 { return workload.AllEqual(perRank, 42) }},
		{"staggered", func(r int) []float64 {
			all := workload.Staggered(p*perRank, p)
			return all[r*perRank : (r+1)*perRank]
		}},
		{"sawtooth", func(r int) []float64 { return workload.Sawtooth(perRank, 7) }},
		{"ksorted", func(r int) []float64 { return workload.KSorted(int64(r+1), perRank, 4) }},
		{"reversed", func(r int) []float64 { return workload.Reversed(perRank) }},
		{"empty", func(r int) []float64 { return nil }},
	}
	modes := []struct {
		name string
		opt  func() Options
	}{
		{"default", DefaultOptions},
		{"stable", func() Options { o := DefaultOptions(); o.Stable = true; return o }},
		{"overlap", func() Options { o := DefaultOptions(); o.TauO = 1 << 20; o.TauM = 0; return o }},
		{"sortbranch", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1; return o }},
		{"nodemerge", func() Options { o := DefaultOptions(); o.TauM = 1 << 40; return o }},
	}

	for _, pat := range patterns {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", pat.name, mode.name), func(t *testing.T) {
				in := make([][]codec.Tagged, p)
				idx := int32(0)
				for r := 0; r < p; r++ {
					keys := pat.gen(r)
					rows := make([]codec.Tagged, len(keys))
					for i, k := range keys {
						rows[i] = codec.Tagged{Key: k, Rank: int32(r), Index: idx}
						idx++
					}
					in[r] = rows
				}
				opt := mode.opt()
				out := runSort(t, topo, in, opt)
				checkSorted(t, in, out, opt.Stable)
			})
		}
	}
}

// TestSortLargeRankCount stress-tests the collective machinery at a rank
// count well beyond the other tests (flat collectives, bitonic pivot
// selection fallback, O(p²) exchange).
func TestSortLargeRankCount(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	topo := cluster.Topology{Nodes: 32, CoresPerNode: 4} // 128 ranks
	p := topo.Size()
	const perRank = 150
	in := make([][]codec.Tagged, p)
	for r := range in {
		keys := workload.ZipfKeys(int64(r+1), perRank, 1.2, 2000)
		rows := make([]codec.Tagged, len(keys))
		for i, k := range keys {
			rows[i] = codec.Tagged{Key: k, Rank: int32(r), Index: int32(i)}
		}
		in[r] = rows
	}
	opt := DefaultOptions()
	opt.TauM = 0
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)

	opt.Stable = true
	out = runSort(t, topo, in, opt)
	checkSorted(t, in, out, true)
}
