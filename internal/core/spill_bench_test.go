package core

import (
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/workload"
)

// BenchmarkSpillMerge prices the out-of-core detour on the same sort:
// the in-memory staged exchange against the spill-forced one, where the
// receive side lands raw run files and the output is a lazy merge. The
// spilled variant pays run writes, the seek-based run partition and the
// merge read-back, so it is expected to trail in-memory; the gap is
// the price of spilling. spill-bytes/op reports the run payload written
// per sort.
func BenchmarkSpillMerge(b *testing.B) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	const perRank = 20000
	parts := make([][]float64, topo.Size())
	for r := range parts {
		parts[r] = workload.Uniform(int64(r+1), perRank)
	}
	cmp := func(a, c float64) int {
		switch {
		case a < c:
			return -1
		case a > c:
			return 1
		}
		return 0
	}
	run := func(b *testing.B, spill bool) {
		stats := &metrics.SpillStats{}
		dir := b.TempDir()
		b.SetBytes(int64(topo.Size()) * perRank * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt := DefaultOptions()
			opt.TauM = 0
			opt.TauO = 0 // synchronous path: both variants run the same all-to-all shape
			opt.StageBytes = 64 << 10
			if spill {
				opt.Spill = &SpillOptions{Dir: dir, Force: true, BufBytes: 64 << 10, Stats: stats}
			}
			err := cluster.RunOpts(topo, cluster.Options{}, func(c *comm.Comm) error {
				local := append([]float64(nil), parts[c.Rank()]...)
				_, err := Sort(c, local, codec.Float64{}, cmp, opt)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		if spill {
			b.ReportMetric(float64(stats.BytesSpilled.Load())/float64(b.N), "spill-bytes/op")
		}
	}
	b.Run("inmemory", func(b *testing.B) { run(b, false) })
	b.Run("spill-forced", func(b *testing.B) { run(b, true) })
}
