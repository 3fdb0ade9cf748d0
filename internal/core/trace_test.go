package core

import (
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/faultnet"
	"sdssort/internal/trace"
)

// TestSortEmitsTrace checks the observable event stream of one sort:
// start/done per rank, the duplicated-pivot report on skewed data, and
// the exchange plan with plausible volumes.
func TestSortEmitsTrace(t *testing.T) {
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 1}
	rec := trace.NewRecorder()
	in := makeTagged(topo.Size(), 400, func(rank, i int) float64 {
		return float64(i % 2) // heavy duplication forces pivot runs
	})
	opt := DefaultOptions()
	opt.TauM = 0
	opt.Trace = rec
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)

	if got := len(rec.ByKind("sort.start")); got != topo.Size() {
		t.Fatalf("%d sort.start events, want %d", got, topo.Size())
	}
	if got := len(rec.ByKind("sort.done")); got != topo.Size() {
		t.Fatalf("%d sort.done events, want %d", got, topo.Size())
	}
	if len(rec.ByKind("pivots.duplicated")) == 0 {
		t.Fatal("no duplicated-pivot events on 2-value data")
	}
	plans := rec.ByKind("exchange.plan")
	if len(plans) != topo.Size() {
		t.Fatalf("%d exchange plans", len(plans))
	}
	var totalRecv int64
	for _, e := range plans {
		// The in-memory recorder keeps native types (the JSONL sink
		// would render them as JSON numbers).
		totalRecv += e.Detail["recv_records"].(int64)
	}
	if int(totalRecv) != topo.Size()*400 {
		t.Fatalf("exchange plans account for %v records, want %d", totalRecv, topo.Size()*400)
	}
}

// TestSortTraceNodeMerge checks leader/follower events on the τm path.
func TestSortTraceNodeMerge(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 3}
	rec := trace.NewRecorder()
	in := makeTagged(topo.Size(), 200, uniformGen(60))
	opt := DefaultOptions()
	opt.TauM = 1 << 40
	opt.Trace = rec
	err := cluster.Run(topo, func(c *comm.Comm) error {
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		_, err := Sort(c, local, taggedCodec, codec.CompareTagged, opt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.ByKind("nodemerge.follower")); got != 4 {
		t.Fatalf("%d followers, want 4", got)
	}
	if got := len(rec.ByKind("nodemerge.leader")); got != 2 {
		t.Fatalf("%d leaders, want 2", got)
	}
}

// TestFailedExchangeClosesSpans kills a rank's transport in the middle
// of the data exchange — one-record chunks make the exchange hundreds
// of operations long, so operation 400 is deep inside it — on the
// synchronous, overlapped and spilled paths. The sort fails on every
// rank, and every span it opened must still be closed: the failed
// exchange ends with reason "error" like the root span above it,
// instead of dangling open in the timeline.
func TestFailedExchangeClosesSpans(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	paths := []struct {
		name, span string
		tune       func(*Options)
	}{
		{"sync", "exchange", func(o *Options) { o.TauO = 0 }},
		{"overlap", "exchange", func(o *Options) { o.TauO = 1 << 20 }},
		{"spill", "spill", func(o *Options) { o.TauO = 0; o.Spill = &SpillOptions{Force: true, Dir: t.TempDir()} }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			inj, err := faultnet.New(faultnet.Plan{KillRank: 1, KillAfterOps: 400})
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder()
			in := makeTagged(topo.Size(), 400, uniformGen(77))
			opt := DefaultOptions()
			opt.TauM = 0
			opt.StageBytes = 16
			opt.Trace = rec
			path.tune(&opt)
			err = cluster.RunOpts(topo, cluster.Options{WrapTransport: inj.Wrap}, func(c *comm.Comm) error {
				local := append([]codec.Tagged(nil), in[c.Rank()]...)
				_, err := Sort(c, local, taggedCodec, codec.CompareTagged, opt)
				return err
			})
			if err == nil || inj.Stats().Kills != 1 {
				t.Fatalf("err = %v with %d kills, want a sort failed by one kill", err, inj.Stats().Kills)
			}
			failed := 0
			for _, sp := range trace.BuildSpans(rec.Events()) {
				if sp.Open {
					t.Errorf("rank %d left span %q open", sp.Rank, sp.Name)
				}
				if sp.Name == path.span && sp.Detail["reason"] == "error" {
					failed++
				}
			}
			if failed == 0 {
				t.Fatalf("no %q span closed with reason error: the kill missed the exchange", path.span)
			}
		})
	}
}
