package algo

import (
	"path/filepath"
	"testing"

	"sdssort/internal/checkpoint"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/recordio"
	"sdssort/internal/trace"
	"sdssort/internal/workload"
)

// restatedKinds are the point events a span of the sort states in full;
// the trace must not carry any of them.
var restatedKinds = []string{
	"sort.start", "sort.done", "exchange.plan", "partition.histogram",
	"nodemerge.leader", "nodemerge.follower", "pivots.duplicated",
	"ckpt.save", "ckpt.resume", "supervisor.done", "node.shrink",
}

// TestOneRecordPerFact runs traced sorts down every path that used to
// restate a span in a point event — overlapped, stable synchronous, τm
// with followers, forced spill, SortFileShard, a checkpointed run and its
// resume from the partition cut, hyksort — and reads each fact off the
// span that now carries it alone: the exchange plan and send counts on
// every exchange and spill span, the leader count on each leader's
// nodemerge span, the epoch on every checkpoint span, and the duplicated
// pivots on the Zipf run's pivots spans. What the exchanges received
// sums to the records sorted.
func TestOneRecordPerFact(t *testing.T) {
	const perRank = 2000
	flat := cluster.Topology{Nodes: 4, CoresPerNode: 1}
	store, err := checkpoint.NewStore(t.TempDir(), flat.Size())
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(rank int) []float64 { return workload.Uniform(int64(rank)+31, perRank) }
	zipf := func(rank int) []float64 {
		return workload.ZipfKeys(int64(rank)+31, perRank, 1.4, workload.DefaultZipfUniverse)
	}
	runs := []struct {
		name   string
		topo   cluster.Topology
		driver string // "" runs core.SortFileShard
		input  func(rank int) []float64
		tune   func(*core.Options)
	}{
		// Eight ranks: the paper's α = 1.4 puts a third of the keys on
		// one value, two pivots' worth.
		{"overlap-zipf", cluster.Topology{Nodes: 8, CoresPerNode: 1}, NameSDS, zipf, func(o *core.Options) { o.TauO = 1 << 20 }},
		{"stable-sync", flat, NameSDS, uniform, func(o *core.Options) { o.Stable = true }},
		{"nodemerge", cluster.Topology{Nodes: 2, CoresPerNode: 2}, NameSDS, uniform, func(o *core.Options) { o.TauM = 1 << 40 }},
		{"spill", flat, NameSDS, uniform, func(o *core.Options) { o.Spill = &core.SpillOptions{Force: true, Dir: t.TempDir()} }},
		{"stream", flat, "", uniform, func(o *core.Options) { o.Spill = &core.SpillOptions{Dir: t.TempDir()} }},
		{"checkpointed", flat, NameSDS, uniform, func(o *core.Options) {
			o.Checkpoint = &core.Checkpointing{Store: store, Sync: true}
		}},
		{"resume-partition", flat, NameSDS, uniform, func(o *core.Options) {
			o.Checkpoint = &core.Checkpointing{Store: store, Epoch: 1, Sync: true,
				Resume: checkpoint.Cut{Epoch: 0, Phase: checkpoint.PhasePartition}}
		}},
		{"hyksort", flat, NameHyk, uniform, func(*core.Options) {}},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			ring := trace.NewRing(ringCap)
			opt := DefaultOptions()
			opt.Core.TauM = 0
			opt.Core.Trace = ring
			run.tune(&opt.Core)
			p := run.topo.Size()
			// SortFileShard cuts the ranks' inputs, all perRank long, back
			// out of their concatenation.
			shards := filepath.Join(t.TempDir(), "in.f64")
			if run.driver == "" {
				var all []float64
				for r := range p {
					all = append(all, run.input(r)...)
				}
				if err := recordio.WriteFile(shards, codec.Float64{}, all); err != nil {
					t.Fatal(err)
				}
			}
			counts, err := cluster.Gather(run.topo, cluster.Options{}, func(c *comm.Comm) ([]int64, error) {
				in := run.input(c.Rank())
				if run.driver == "" {
					blk, err := core.SortFileShard(c, shards, codec.Float64{}, cmpF64, opt.Core)
					if err != nil {
						return nil, err
					}
					defer blk.Remove()
					return []int64{blk.Records()}, nil
				}
				out, err := sortWith(run.driver, c, in, opt)
				return []int64{int64(len(out))}, err
			})
			if err != nil {
				t.Fatal(err)
			}
			var sorted int64
			for _, c := range counts {
				sorted += c[0]
			}
			if sorted != int64(p*perRank) {
				t.Fatalf("sorted %d records, want %d", sorted, p*perRank)
			}
			events := recorded(t, ring, "")
			checkTraceComplete(t, events, p)

			// (a) No point event restates a span.
			a := trace.Analyze(events)
			for _, k := range restatedKinds {
				if n := a.Kinds[k]; n > 0 {
					t.Errorf("%d %s events", n, k)
				}
			}

			// (b) Every moved fact is in its span.
			seen := map[string]int{}
			for _, sp := range trace.BuildSpans(events) {
				seen[sp.Name]++
				need := []string{}
				switch sp.Name {
				case "exchange", "spill":
					need = []string{"stage_bytes", "sent", "overlap", "send_records", "recv_records"}
					if want := run.name == "overlap-zipf"; (want || run.name == "stable-sync") && sp.Detail["overlap"] != want {
						t.Errorf("rank %d %s span overlap = %v, want %v", sp.Rank, sp.Name, sp.Detail["overlap"], want)
					}
				case "nodemerge":
					if sp.Detail["leader"] == true {
						need = []string{"leaders", "records"}
						if run.name == "nodemerge" && sp.Detail["leaders"] != run.topo.Nodes {
							t.Errorf("rank %d nodemerge leaders = %v, want %d", sp.Rank, sp.Detail["leaders"], run.topo.Nodes)
						}
					}
				case "checkpoint":
					need = []string{"epoch", "phase", "op"}
					seen["checkpoint "+sp.Detail["op"].(string)]++
					if sp.Detail["alias"] != nil {
						seen["checkpoint alias"]++
					}
					if sp.Detail["op"] == "load" {
						need = append(need, "from_epoch", "records")
					}
				case "pivots":
					if run.name == "overlap-zipf" {
						need = []string{"dup_runs", "duplicated_pivots"}
					}
				}
				for _, k := range need {
					if _, ok := sp.Detail[k]; !ok {
						t.Errorf("rank %d %s span lacks %q: %v", sp.Rank, sp.Name, k, sp.Detail)
					}
				}
			}
			switch run.name {
			case "nodemerge":
				if a.DoneReasons["follower"] != p-run.topo.Nodes {
					t.Errorf("done reasons %v, want %d followers", a.DoneReasons, p-run.topo.Nodes)
				}
			case "checkpointed":
				// The partition cut aliases the local-sort snapshot.
				if seen["checkpoint save"] == 0 || seen["checkpoint alias"] == 0 {
					t.Errorf("checkpoint spans %v, want saves, one aliased", seen)
				}
			case "resume-partition":
				if seen["checkpoint load"] != p {
					t.Errorf("%d checkpoint loads, want %d", seen["checkpoint load"], p)
				}
			case "overlap-zipf":
				if seen["pivots"] != p {
					t.Errorf("%d pivots spans, want %d", seen["pivots"], p)
				}
			}
			if seen["exchange"]+seen["spill"] == 0 {
				t.Fatal("no exchange or spill span")
			}

			// (c) What the exchanges received is what was sorted.
			var recv int64
			for _, n := range a.ExchangeRecv {
				recv += n
			}
			if recv != sorted {
				t.Errorf("exchange spans received %d records, sorted %d", recv, sorted)
			}
		})
	}
}
