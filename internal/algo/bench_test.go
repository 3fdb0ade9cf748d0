package algo

import (
	"context"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/workload"
)

// BenchmarkAlgoCompare races the drivers on the skew workload the layer
// exists to arbitrate: Zipf α=1.4 keys (δ≈32% duplicates), timing each
// driver's end-to-end path — partition, exchange, merge — side by side.
func BenchmarkAlgoCompare(b *testing.B) {
	const p, perRank = 4, 20000
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	pre, ok := workload.LookupPreset("zipf")
	if !ok {
		b.Fatal("zipf preset missing")
	}
	base := make([][]float64, p)
	for r := range base {
		base[r] = pre.Gen(17+int64(r)*613, perRank)
	}
	for _, name := range []string{NameSDS, NameHSS, NameAMS, NameHyk} {
		b.Run(name, func(b *testing.B) {
			drv, err := New[float64](name)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(p * perRank * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
					// Drivers reorder their input; hand each run a copy.
					data := append([]float64(nil), base[c.Rank()]...)
					return drv.Sort(context.Background(), c, data, codec.Float64{}, cmpF64, DefaultOptions())
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
