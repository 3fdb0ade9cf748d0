package sdssort

// The benchmark harness: one testing.B benchmark per table/figure of
// the paper's evaluation that makes its own runs (each delegates to the
// experiment driver that regenerates the artifact; `cmd/sdsbench -exp
// <id>` prints the full rows). Tables 3 and 4 print the runs of Figs.
// 7-8 and 9-10, so those figures' benchmarks time them. Plus
// micro-benchmarks of the public sorting API across the paper's
// workload regimes.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"sdssort/internal/experiments"
	"sdssort/internal/workload"
)

// benchExperiment runs one experiment driver per iteration (quick
// configuration). b.N is typically 1 for these macro-benchmarks; the
// per-op time is the cost of regenerating the artifact.
func benchExperiment(b *testing.B, id string) {
	run, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Quick: true, Seed: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aNodeMerging(b *testing.B)       { benchExperiment(b, "fig5a") }
func BenchmarkFig5bOverlap(b *testing.B)           { benchExperiment(b, "fig5b") }
func BenchmarkFig5cLocalOrdering(b *testing.B)     { benchExperiment(b, "fig5c") }
func BenchmarkTable1SequentialSorts(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkTable2ZipfDelta(b *testing.B)        { benchExperiment(b, "tab2") }
func BenchmarkFig6aParallelMerge(b *testing.B)     { benchExperiment(b, "fig6a") }
func BenchmarkFig6bPartition(b *testing.B)         { benchExperiment(b, "fig6b") }
func BenchmarkFig6cSkewSweep(b *testing.B)         { benchExperiment(b, "fig6c") }
func BenchmarkFig7WeakScalingUniform(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8WeakScalingZipf(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9PTF(b *testing.B)                { benchExperiment(b, "fig9") }
func BenchmarkFig10Cosmology(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkAblations(b *testing.B)              { benchExperiment(b, "ablation") }

// --- Micro-benchmarks of the public API across workload regimes. ---

func benchSortLocal(b *testing.B, topo Topology, gen func(rank int) []float64, opts ...Option) {
	parts := make([][]float64, topo.Size())
	var bytes int64
	for r := range parts {
		parts[r] = gen(r)
		bytes += int64(len(parts[r])) * 8
	}
	sorter := NewSorter[float64](Float64Codec(), Compare[float64], opts...)
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sorter.SortLocal(topo, parts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortUniform8Ranks(b *testing.B) {
	benchSortLocal(b, Topology{Nodes: 4, CoresPerNode: 2}, func(r int) []float64 {
		return workload.Uniform(int64(r+1), 20000)
	})
}

func BenchmarkSortZipf8Ranks(b *testing.B) {
	benchSortLocal(b, Topology{Nodes: 4, CoresPerNode: 2}, func(r int) []float64 {
		return workload.ZipfKeys(int64(r+1), 20000, 1.4, workload.DefaultZipfUniverse)
	})
}

func BenchmarkSortZipf8RanksStable(b *testing.B) {
	benchSortLocal(b, Topology{Nodes: 4, CoresPerNode: 2}, func(r int) []float64 {
		return workload.ZipfKeys(int64(r+1), 20000, 1.4, workload.DefaultZipfUniverse)
	}, Stable())
}

func BenchmarkSortAllEqual8Ranks(b *testing.B) {
	benchSortLocal(b, Topology{Nodes: 4, CoresPerNode: 2}, func(r int) []float64 {
		out := make([]float64, 20000)
		for i := range out {
			out[i] = 7
		}
		return out
	})
}

func BenchmarkSortPartiallyOrdered8Ranks(b *testing.B) {
	benchSortLocal(b, Topology{Nodes: 4, CoresPerNode: 2}, func(r int) []float64 {
		return workload.KSorted(int64(r+1), 20000, 4)
	})
}

func BenchmarkSortRankCounts(b *testing.B) {
	for _, p := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchSortLocal(b, Topology{Nodes: p, CoresPerNode: 1}, func(r int) []float64 {
				return workload.Uniform(int64(r+1), 10000)
			})
		})
	}
}

func BenchmarkSortPTFRecords(b *testing.B) {
	topo := Topology{Nodes: 4, CoresPerNode: 2}
	parts := make([][]PTFRecord, topo.Size())
	var bytes int64
	for r := range parts {
		parts[r] = workload.PTF(int64(r+1), 10000)
		bytes += int64(len(parts[r])) * 16
	}
	sorter := NewSorter[PTFRecord](PTFCodec(), ComparePTF)
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sorter.SortLocal(topo, parts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortParticles(b *testing.B) {
	topo := Topology{Nodes: 4, CoresPerNode: 2}
	parts := make([][]Particle, topo.Size())
	var bytes int64
	for r := range parts {
		parts[r] = workload.Cosmology(int64(r+1), 10000)
		bytes += int64(len(parts[r])) * 32
	}
	sorter := NewSorter[Particle](ParticleCodec(), CompareParticles)
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sorter.SortLocal(topo, parts); err != nil {
			b.Fatal(err)
		}
	}
}
