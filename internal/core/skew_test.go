package core

import (
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
)

// TestSkewStragglerOnLeaders: after a τm merge the load vector is the
// leaders', indexed by leader rank, so a rank finds itself in it at
// wc.Rank(), not at its world rank. Leader 1 (world rank 2) carries ten
// times the others' load and must be the one straggler counted.
func TestSkewStragglerOnLeaders(t *testing.T) {
	skew := metrics.NewSkewStats()
	opt := DefaultOptions()
	opt.Skew = skew
	err := cluster.Run(cluster.Topology{Nodes: 4, CoresPerNode: 2}, func(c *comm.Comm) error {
		_, leaders, err := c.SplitByNode()
		if err != nil || leaders == nil {
			return err
		}
		r, err := newRun(c, codec.TaggedCodec{}, compareTagged, opt)
		if err != nil {
			return err
		}
		r.wc = leaders
		load := int64(100)
		if leaders.Rank() == 1 {
			load = 1000
		}
		return r.observeSkew(metrics.SkewExchange, load)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := skew.Stragglers(metrics.SkewExchange); got != 1 {
		t.Fatalf("%d stragglers counted, want 1 (leader 1)", got)
	}
}
