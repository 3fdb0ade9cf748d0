package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sdssort/internal/checkpoint"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/extsort"
	"sdssort/internal/faultnet"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/recordio"
	"sdssort/internal/trace"
)

// collisionFree generates keys that are unique across every (rank, i),
// so any correct sort — in-memory or spilled, merge or re-sort — has
// exactly one valid output and byte-identity is a meaningful assertion.
func collisionFree(p int) func(rank, i int) float64 {
	return func(rank, i int) float64 {
		return float64(uint32((i*p + rank) * 2654435761))
	}
}

func flatten(parts [][]codec.Tagged) []codec.Tagged {
	var flat []codec.Tagged
	for _, part := range parts {
		flat = append(flat, part...)
	}
	return flat
}

// canonTagged is the one total order on Tagged records: key, then
// origin rank, then origin index. For collision-free keys it degrades
// to key order; for duplicated keys it is the stable sort's output.
func canonTagged(a, b codec.Tagged) int {
	if c := compareTagged(a, b); c != 0 {
		return c
	}
	if a.Rank != b.Rank {
		return int(a.Rank - b.Rank)
	}
	return int(a.Index - b.Index)
}

// TestSpillForcedMatchesInMemory is the spilled-vs-resident
// equivalence property: with Spill.Force the exchange's receive side
// goes through disk runs, and the per-rank outputs must be identical —
// not merely "some sorted order" — to the in-memory path, on every
// driver path: sync-merge, sync-resort, overlap, stable, τm-merged,
// chunked and unchunked, zero-copy and marshal.
func TestSpillForcedMatchesInMemory(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	unique := collisionFree(p)
	dup := func(rank, i int) float64 { return float64((rank*31 + i) % 7) }
	configs := []struct {
		name string
		gen  func(rank, i int) float64
		opt  Options
	}{
		{"sync-merge", unique, func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1 << 20; o.TauM = 0; return o }()},
		{"sync-resort", unique, func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1; o.TauM = 0; return o }()},
		{"overlap", unique, func() Options { o := DefaultOptions(); o.TauO = 1 << 20; o.TauM = 0; return o }()},
		{"stable", dup, func() Options { o := DefaultOptions(); o.Stable = true; o.TauM = 0; return o }()},
		{"merged", unique, func() Options { o := DefaultOptions(); o.TauM = 1 << 40; return o }()},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			in := makeTagged(p, 400, cfg.gen)
			for _, stage := range []int64{0, 1000} {
				for _, zc := range []bool{true, false} {
					name := "unchunked"
					if stage > 0 {
						name = fmt.Sprintf("stage%d", stage)
					}
					if !zc {
						name += "-marshal"
					}
					t.Run(name, func(t *testing.T) {
						base := cfg.opt
						base.StageBytes = stage
						cd := taggedCodecFor(zc)
						want := runSortCodec(t, topo, in, cd, base)
						checkSorted(t, in, want, base.Stable)

						spilled := base
						stats := &metrics.SpillStats{}
						spilled.Exchange = &metrics.ExchangeStats{}
						spilled.Spill = &SpillOptions{
							Force: true, Dir: t.TempDir(),
							BufBytes: 4 << 10, Stats: stats,
						}
						got := runSortCodec(t, topo, in, cd, spilled)
						equalOutputs(t, want, got, "spill-forced")
						if !stats.Spilled() {
							t.Fatal("forced spill never spilled")
						}
						// With τm merging only the node leaders reach the
						// exchange; otherwise every rank spills.
						if n, max := stats.SpilledSorts.Load(), int64(p); n < 1 || n > max {
							t.Fatalf("SpilledSorts = %d outside [1, %d]", n, max)
						}
						if stats.RunsSpilled.Load() == 0 || stats.BytesSpilled.Load() == 0 {
							t.Fatalf("no run traffic recorded: %s", stats)
						}
					})
				}
			}
		})
	}
}

// TestSpillBudgetTrigger: a budget that admits the input but not
// input+receive must fail with OOM on the plain path and succeed —
// same output, Peak under budget, gauge drained — once a spill tier
// is configured. This is the tentpole's admission story: the spill
// decision is driven by the same reservation that used to kill the job.
func TestSpillBudgetTrigger(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	const perRank = 2000 // 32000 bytes of input per rank
	const budget = 56000 // fits input + spill machinery, not input + receive
	in := makeTagged(p, perRank, collisionFree(p))

	// Control: without the spill tier this budget is a death sentence.
	err := cluster.Run(topo, func(c *comm.Comm) error {
		opt := DefaultOptions()
		opt.TauM = 0
		opt.Mem = memlimit.New(budget)
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		_, err := Sort(c, local, taggedCodec, compareTagged, opt)
		if !errors.Is(err, memlimit.ErrOutOfMemory) {
			return fmt.Errorf("rank %d: got %v, want ErrOutOfMemory", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// With the tier: the failed receive reservation votes to spill.
	stats := &metrics.SpillStats{}
	spillDir := t.TempDir()
	gauges := make([]*memlimit.Gauge, p)
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
		opt := DefaultOptions()
		opt.TauM = 0
		opt.StageBytes = 4 << 10
		opt.Exchange = &metrics.ExchangeStats{}
		opt.Mem = memlimit.New(budget)
		gauges[c.Rank()] = opt.Mem
		opt.Spill = &SpillOptions{Dir: spillDir, BufBytes: 4 << 10, Stats: stats}
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		return Sort(c, local, taggedCodec, compareTagged, opt)
	})
	if err != nil {
		t.Fatalf("budgeted sort died despite the spill tier: %v", err)
	}
	checkSorted(t, in, out, false)
	if !stats.Spilled() {
		t.Fatal("receive pressure never triggered a spill")
	}
	for r, g := range gauges {
		if g.Used() != 0 {
			t.Fatalf("rank %d gauge holds %d bytes after Sort returned", r, g.Used())
		}
		if pk := g.Peak(); pk == 0 || pk > budget {
			t.Fatalf("rank %d peak %d outside (0, %d]", r, pk, budget)
		}
	}
	// The spill directories are private per sort and die with it.
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not cleaned: %v", ents)
	}
}

// TestSpillDecisionIsCollective: only one rank is under pressure, but
// the exchange is one collective — every rank must take the spilled
// path, and the output must still be exact.
func TestSpillDecisionIsCollective(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	in := makeTagged(p, 1000, collisionFree(p))
	base := DefaultOptions()
	base.TauM = 0
	want := runSort(t, topo, in, base)

	stats := &metrics.SpillStats{}
	rec := trace.NewRing(ringCap)
	got, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
		opt := base
		opt.Trace = rec
		opt.StageBytes = 2 << 10
		opt.Spill = &SpillOptions{Dir: t.TempDir(), BufBytes: 1 << 10, Stats: stats}
		if c.Rank() == 1 {
			// Tight enough that rank 1's receive reservation fails
			// (input + receive ≈ 32000), roomy enough for its spilled
			// path (output + merge cursors ≈ 20000).
			opt.Mem = memlimit.New(24000)
		}
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		return Sort(c, local, taggedCodec, compareTagged, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	equalOutputs(t, want, got, "collective-spill")
	if n := stats.SpilledSorts.Load(); n != int64(p) {
		t.Fatalf("%d ranks spilled, want all %d — the decision must be collective", n, p)
	}
	// Each spill span announces its run files and chunk bound up front;
	// the runs it announced are the runs the spool wrote.
	runs, spans := 0, 0
	for _, sp := range trace.BuildSpans(recorded(t, rec, "")) {
		if sp.Name != "spill" {
			continue
		}
		spans++
		n, _ := sp.Detail["runs"].(int)
		runs += n
		if stage, _ := sp.Detail["stage_bytes"].(int64); stage <= 0 {
			t.Errorf("rank %d spill span stage_bytes %v, want the positive chunk bound", sp.Rank, sp.Detail["stage_bytes"])
		}
	}
	if spans != p || int64(runs) != stats.RunsSpilled.Load() {
		t.Fatalf("%d spill spans announcing %d runs; want %d spans and the %d runs spilled", spans, runs, p, stats.RunsSpilled.Load())
	}
}

// sortRanks runs the spilled sort over in-memory per-rank inputs, each
// rank's written to a file of its own and sorted as one segment of it,
// and returns the per-rank blocks as drain reads them back.
func sortRanks[T any](t *testing.T, topo cluster.Topology, in [][]T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) [][]T {
	t.Helper()
	dir := t.TempDir()
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]T, error) {
		sp, err := sortRank(c, dir, in[c.Rank()], cd, cmp, opt)
		if err != nil {
			return nil, err
		}
		defer sp.Remove()
		return drain(sp, cd)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sortRank writes one rank's records to a file under dir and sorts them
// as the segment that holds them.
func sortRank[T any](c *comm.Comm, dir string, recs []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (*Spilled[T], error) {
	path := filepath.Join(dir, fmt.Sprintf("in-%d", c.Rank()))
	if err := recordio.WriteFile(path, cd, recs); err != nil {
		return nil, err
	}
	return sortSegment(c, path, 0, int64(len(recs)), cd, cmp, opt)
}

// drain reads a spilled block back through Spilled.Stream, as every
// client does, and checks it holds the block's record count.
func drain[T any](sp *Spilled[T], cd codec.Codec[T]) ([]T, error) {
	var buf bytes.Buffer
	if err := sp.Stream(&buf); err != nil {
		return nil, fmt.Errorf("stream block: %w", err)
	}
	recs, err := codec.DecodeSlice(cd, buf.Bytes())
	if err == nil && int64(len(recs)) != sp.Records() {
		err = fmt.Errorf("streamed %d of %d records", len(recs), sp.Records())
	}
	return recs, err
}

// TestSpillStreamMatchesSort: the fully out-of-core driver must
// produce the same global dataset order as the resident sort — exactly
// equal concatenation, since the test keys make the sorted order
// unique (collision-free keys for the fast path, stability for the
// duplicated one). Per-rank boundaries may differ: the spilled sort
// samples per chunk, the resident sort samples the fully sorted shard.
func TestSpillStreamMatchesSort(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	modes := []struct {
		name   string
		gen    func(rank, i int) float64
		stable bool
	}{
		{"unique", collisionFree(p), false},
		{"stable-dup", func(rank, i int) float64 { return float64((rank*13 + i) % 5) }, true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			in := makeTagged(p, 1000, mode.gen)
			want := flatten(in)
			slices.SortStableFunc(want, canonTagged)

			opt := DefaultOptions()
			opt.Stable = mode.stable
			opt.StageBytes = 512
			opt.Exchange = &metrics.ExchangeStats{}
			stats := &metrics.SpillStats{}
			// Tiny chunks and a tiny fan-in force many local runs AND
			// pre-merge passes on the exchange's send side.
			opt.Spill = &SpillOptions{
				Dir: t.TempDir(), ChunkRecords: 100,
				BufBytes: 4 << 10, MaxFanIn: 4, Stats: stats,
			}
			out := sortRanks(t, topo, in, taggedCodec, compareTagged, opt)
			checkSorted(t, in, out, mode.stable)
			if got := flatten(out); !slices.Equal(got, want) {
				t.Fatal("streamed sort's concatenation differs from the canonical order")
			}
			if stats.RunsSpilled.Load() < int64(p*10) {
				t.Fatalf("expected >= %d local runs, got %d", p*10, stats.RunsSpilled.Load())
			}
			if stats.MergePasses.Load() == 0 {
				t.Fatal("fan-in cap 4 over 10 runs never pre-merged")
			}
		})
	}
}

// ptfLike is a PTF-like key for record i of rank's perRank: 28 % of the
// keys are one value, the rest hashed apart.
func ptfLike(perRank int) func(rank, i int) float64 {
	return func(rank, i int) float64 {
		h := uint64(rank*perRank+i) * 0x9E3779B97F4A7C15 >> 32
		if h%100 < 28 {
			return 1 << 31
		}
		return float64(h)
	}
}

// TestSortLoadBound is Theorem 1 for the resident sort at the paper's
// scale: 8 × 24 ranks, no node merge, and 2p−1 records per rank, so
// n/p is not whole and a floored sampling stride (1 here) would leave
// the top half of every rank unsampled — all of it then lands on the
// last rank. Every block must stay within 4N/p.
func TestSortLoadBound(t *testing.T) {
	topo := cluster.Topology{Nodes: 8, CoresPerNode: 24}
	p := topo.Size()
	perRank := 2*p - 1
	for _, tc := range []struct {
		name   string
		gen    func(rank, i int) float64
		stable bool
	}{
		{"uniform/fast", uniformGen(5), false},
		{"ptf-like/stable", ptfLike(perRank), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := makeTagged(p, perRank, tc.gen)
			opt := DefaultOptions()
			opt.TauM, opt.Stable = 0, tc.stable
			out := runSort(t, topo, in, opt)
			checkSorted(t, in, out, tc.stable)
			bound := 4 * perRank
			for r, block := range out {
				if len(block) > bound {
					t.Errorf("rank %d holds %d records, above 4N/p = %d", r, len(block), bound)
				}
			}
		})
	}
}

// TestSpillStreamLoadBound is Theorem 1 on the out-of-core route: each
// local run is a stripe of the skew-aware split, so the duplicates of a
// replicated pivot are shared among the ranks that own it, as on the
// resident route, and no rank's block passes 4N/p. The fast rule splits
// every run's duplicates evenly, which can give a rank one record per
// run in the world above its exact share: that is the slack. The
// concatenation is the resident sort's — record for record under the
// stable rule, key for key under the fast one, whose order among equal
// keys is its own on either route.
func TestSpillStreamLoadBound(t *testing.T) {
	// Four local runs per rank: few enough that a floored stride over
	// the pooled run samples would draw every pivot from their low end.
	const perRank, chunk = 2000, 500
	inputs := []struct {
		name string
		gen  func(rank, i int) float64
	}{
		{"all-equal", func(rank, i int) float64 { return 7 }},
		{"two-value", func(rank, i int) float64 { return float64(min(i%5, 3) / 3) }}, // 60 % zeros
		{"zipf", zipfGen(11, 2.1)},
		{"ptf-like", ptfLike(perRank)},
	}
	for _, input := range inputs {
		for _, p := range []int{4, 8, 16} {
			for _, stable := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p%d/stable=%v", input.name, p, stable), func(t *testing.T) {
					topo := cluster.Topology{Nodes: p / 2, CoresPerNode: 2}
					in := makeTagged(p, perRank, input.gen)
					opt := DefaultOptions()
					opt.Stable = stable
					want := flatten(runSort(t, topo, in, opt))

					ring := trace.NewRing(ringCap)
					opt.Trace = ring
					opt.Spill = &SpillOptions{Dir: t.TempDir(), ChunkRecords: chunk, BufBytes: 4 << 10}
					out := sortRanks(t, topo, in, taggedCodec, compareTagged, opt)
					n, runs := p*perRank, p*perRank/chunk
					bound := 4*n/p + runs
					for r, block := range out {
						if len(block) > bound {
							t.Errorf("rank %d holds %d records, above 4N/p + %d runs = %d", r, len(block), runs, bound)
						}
					}
					got := flatten(out)
					if !stable {
						got, want = keysOf(got), keysOf(want)
					}
					if !slices.Equal(got, want) {
						t.Fatal("streamed sort's concatenation differs from the resident sort's")
					}
					if input.name != "all-equal" {
						return
					}
					// The split fired, and the pivots span says so with its inputs.
					spans := spansNamed(t, ring, "pivots")
					if len(spans) != p {
						t.Fatalf("%d pivots spans, want %d", len(spans), p)
					}
					for _, s := range spans {
						if s.Detail["dup_runs"] != 1 || s.Detail["duplicated_pivots"] != p-1 {
							t.Fatalf("rank %d pivots span %v, want 1 duplicated run of %d pivots", s.Rank, s.Detail, p-1)
						}
					}
				})
			}
		}
	}
}

// keysOf strips records to their keys: what a non-stable sort fixes.
func keysOf(recs []codec.Tagged) []codec.Tagged {
	keys := make([]codec.Tagged, len(recs))
	for i, rec := range recs {
		keys[i].Key = rec.Key
	}
	return keys
}

// TestSpillStreamEdgeCases: the single-rank world (pure external sort)
// and the globally empty dataset, both of which skip the exchange.
func TestSpillStreamEdgeCases(t *testing.T) {
	t.Run("single-rank", func(t *testing.T) {
		topo := cluster.Topology{Nodes: 1, CoresPerNode: 1}
		in := makeTagged(1, 777, zipfGen(5, 1.2))
		opt := DefaultOptions()
		opt.Spill = &SpillOptions{Dir: t.TempDir(), ChunkRecords: 64, MaxFanIn: 3, BufBytes: 4 << 10}
		out := sortRanks(t, topo, in, taggedCodec, compareTagged, opt)
		checkSorted(t, in, out, false)
	})
	t.Run("empty", func(t *testing.T) {
		topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
		in := make([][]codec.Tagged, topo.Size())
		opt := DefaultOptions()
		opt.Spill = &SpillOptions{Dir: t.TempDir(), ChunkRecords: 64, BufBytes: 4 << 10}
		out := sortRanks(t, topo, in, taggedCodec, compareTagged, opt)
		for r, part := range out {
			if len(part) != 0 {
				t.Fatalf("rank %d produced %d records from nothing", r, len(part))
			}
		}
	})
	t.Run("needs-spill-options", func(t *testing.T) {
		err := cluster.Run(cluster.Topology{Nodes: 1, CoresPerNode: 1}, func(c *comm.Comm) error {
			_, err := sortRank[codec.Tagged](c, t.TempDir(), nil, taggedCodec, compareTagged, DefaultOptions())
			if err == nil {
				return errors.New("the spilled sort accepted a nil Spill")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSpillFileShardBeyondMemory is the acceptance e2e: a multi-rank
// world sorts a file 8x larger (per rank) than each rank's memlimit
// budget, every reservation staying under the gauge, and the result is
// byte-identical to the in-memory sort of the same data.
func TestSpillFileShardBeyondMemory(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	const budget = 64 << 10                    // 64 KiB per rank
	perRank := 8 * budget / taggedCodec.Size() // 8x the budget, in records
	total := p * perRank                       // 2 MiB file
	recs := make([]codec.Tagged, total)
	for i := range recs {
		// A bijection on uint32 keeps keys unique and well spread.
		recs[i] = codec.Tagged{Key: float64(uint32(i * 2654435761)), Index: int32(i)}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "huge.rec")
	if err := recordio.WriteFile(path, taggedCodec, recs); err != nil {
		t.Fatal(err)
	}

	// In-memory reference over the same shard layout, no budget.
	shards := make([][]codec.Tagged, p)
	for r := 0; r < p; r++ {
		shards[r] = recs[r*perRank : (r+1)*perRank]
	}
	ref := runSort(t, topo, shards, DefaultOptions())
	want := flatten(ref)

	stats := &metrics.SpillStats{}
	gauges := make([]*memlimit.Gauge, p)
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
		opt := DefaultOptions()
		opt.StageBytes = 4 << 10
		opt.Exchange = &metrics.ExchangeStats{}
		opt.Mem = memlimit.New(budget)
		gauges[c.Rank()] = opt.Mem
		opt.Spill = &SpillOptions{
			Dir: t.TempDir(), ChunkRecords: 512,
			BufBytes: 4 << 10, MaxFanIn: 8, Stats: stats,
		}
		sp, err := SortFileShard(c, path, taggedCodec, compareTagged, opt)
		if err != nil {
			return nil, err
		}
		defer sp.Remove()
		return drain(sp, taggedCodec)
	})
	if err != nil {
		t.Fatalf("8x-budget sort failed: %v", err)
	}
	if got := flatten(out); !slices.Equal(got, want) {
		t.Fatal("out-of-core output differs from the in-memory sort")
	}
	for r, g := range gauges {
		if pk := g.Peak(); pk == 0 || pk > budget {
			t.Fatalf("rank %d peak %d bytes outside (0, %d] — the footprint is not honest", r, pk, budget)
		}
		if g.Used() != 0 {
			t.Fatalf("rank %d gauge holds %d bytes after the sort", r, g.Used())
		}
		t.Logf("rank %d: peak %d of %d budget (input %d bytes)",
			r, g.Peak(), budget, int64(perRank)*int64(taggedCodec.Size()))
	}
	if stats.MergePasses.Load() == 0 {
		t.Fatal("64 runs under fan-in 8 never pre-merged")
	}
}

// TestSpillCrashResume: a rank dies after its partition checkpoint —
// with the next stop being the spilled exchange — and the supervised
// relaunch must converge to the fault-free in-memory output in exactly
// one restart, ignoring both a stale spill directory and orphaned
// .tmp-run- files pre-seeded where a crashed attempt would leave them.
func TestSpillCrashResume(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	const killRank = 1
	in := makeTagged(p, 300, collisionFree(p))
	base := DefaultOptions()
	base.TauM = 0

	// Fault-free in-memory baseline.
	store, err := checkpoint.NewStore(t.TempDir(), p)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := runSupervisedSort(t, topo, cluster.Options{}, store, in, base)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, baseline, false)

	// The wreckage of a hypothetical earlier crash: an uncommitted
	// temp run and a whole abandoned spill directory with plausible
	// run names but garbage contents. Reading any of it would corrupt
	// the resumed sort.
	spillDir := t.TempDir()
	stale := filepath.Join(spillDir, "spill-stale")
	if err := os.Mkdir(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	junk := []byte("not a recordio run")
	for _, f := range []string{
		filepath.Join(spillDir, extsort.TempPrefix+"orphan"),
		filepath.Join(stale, "recv-000000"),
		filepath.Join(stale, extsort.TempPrefix+"half-written"),
	} {
		if err := os.WriteFile(f, junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := checkpoint.NewStore(t.TempDir(), p)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultnet.New(faultnet.Plan{
		KillRank:      killRank,
		KillAfterFile: store2.ManifestPath(0, checkpoint.PhasePartition, killRank),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRing(ringCap)
	opts := cluster.Options{
		MaxRestarts: 2,
		Trace:       rec,
		WrapTransport: func(tr comm.Transport) comm.Transport {
			return inj.Wrap(tr)
		},
	}
	spilled := base
	spilled.StageBytes = 4 << 10
	spilled.Spill = &SpillOptions{Force: true, Dir: spillDir, BufBytes: 4 << 10, Stats: &metrics.SpillStats{}}
	got, err := runSupervisedSort(t, topo, opts, store2, in, spilled)
	if err != nil {
		t.Fatalf("supervised spilled sort did not recover: %v", err)
	}
	if k := inj.Stats().Kills; k != 1 {
		t.Fatalf("kill fired %d times, want 1", k)
	}
	if r := len(recorded(t, rec, "supervisor.restart")); r != 1 {
		t.Fatalf("recovered with %d restarts, want exactly 1", r)
	}
	equalOutputs(t, baseline, got, "crash-mid-spill")

	// The wreckage is still there, untouched (each sort works in its
	// own fresh subdirectory), and nothing new leaked next to it.
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	if want := []string{extsort.TempPrefix + "orphan", "spill-stale"}; !slices.Equal(names, want) {
		t.Fatalf("spill dir after recovery holds %v, want only the pre-seeded wreckage %v", names, want)
	}
	if b, err := os.ReadFile(filepath.Join(stale, "recv-000000")); err != nil || !bytes.Equal(b, junk) {
		t.Fatalf("stale run was modified (err=%v)", err)
	}
}

// TestSpillSoak runs forced-spill sorts over a flaky fabric — send and
// recv failures, connection drops, delays, duplicated frames, all
// under the retry budget — with the schedule seeded from FAULTNET_SEED
// so the CI soak lane explores different interleavings run to run.
func TestSpillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seed := shrinkSeed(t)
	inj, err := faultnet.New(faultnet.Plan{
		Seed:         seed,
		SendFailRate: 0.10, ConnDropRate: 0.03, RecvFailRate: 0.05,
		MaxConsecutive: 2,
		DelayRate:      0.05, MaxDelay: 200 * time.Microsecond,
		DupRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy := comm.RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond, Seed: seed}
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	in := makeTagged(p, 1200, zipfGen(seed, 1.3))
	stats := &metrics.SpillStats{}
	outputs := make([][]codec.Tagged, p)
	var mu sync.Mutex
	err = cluster.RunOpts(topo, cluster.Options{WrapTransport: inj.WrapTransport(policy)}, func(c *comm.Comm) error {
		opt := DefaultOptions()
		opt.Stable = true // the strictest output contract under faults
		opt.StageBytes = 2 << 10
		opt.Spill = &SpillOptions{Force: true, Dir: t.TempDir(), BufBytes: 4 << 10, Stats: stats}
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		out, err := Sort(c, local, taggedCodec, compareTagged, opt)
		if err != nil {
			return err
		}
		mu.Lock()
		outputs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spilled sort under injected faults failed: %v\nstats: %+v", err, inj.Stats())
	}
	checkSorted(t, in, outputs, true)
	if !stats.Spilled() {
		t.Fatal("soak never spilled")
	}
	st := inj.Stats()
	if st.SendFailures+st.ConnDrops+st.RecvFailures == 0 {
		t.Fatalf("the run was never actually faulted: %+v", st)
	}
	t.Logf("survived %+v with %s", st, stats)
}

// TestSpillFitBudget: the budget-derived knob fit the CLIs rely on —
// buffers scale with the budget, fan-in caps so cursor buffers hold a
// quarter of it, explicit settings win, zero budget is a no-op.
func TestSpillFitBudget(t *testing.T) {
	sp := &SpillOptions{}
	sp.FitBudget(1 << 20)
	if sp.BufBytes != 32<<10 || sp.MaxFanIn != 8 {
		t.Fatalf("1MiB budget fit: buf=%d fan=%d", sp.BufBytes, sp.MaxFanIn)
	}
	tiny := &SpillOptions{}
	tiny.FitBudget(64 << 10)
	if tiny.BufBytes != 4<<10 || tiny.MaxFanIn != 4 {
		t.Fatalf("64KiB budget fit: buf=%d fan=%d", tiny.BufBytes, tiny.MaxFanIn)
	}
	big := &SpillOptions{}
	big.FitBudget(1 << 30)
	if big.BufBytes != 256<<10 || big.MaxFanIn != 64 {
		t.Fatalf("1GiB budget fit: buf=%d fan=%d", big.BufBytes, big.MaxFanIn)
	}
	set := &SpillOptions{BufBytes: 1 << 10, MaxFanIn: 3}
	set.FitBudget(1 << 20)
	if set.BufBytes != 1<<10 || set.MaxFanIn != 3 {
		t.Fatalf("explicit knobs overridden: buf=%d fan=%d", set.BufBytes, set.MaxFanIn)
	}
	zero := &SpillOptions{}
	zero.FitBudget(0)
	if zero.BufBytes != 0 || zero.MaxFanIn != 0 {
		t.Fatalf("zero budget touched the knobs: buf=%d fan=%d", zero.BufBytes, zero.MaxFanIn)
	}
}

// TestSpillKeylessStableScratchKept: a stable sort of a codec without a
// key merge-sorts each chunk on one core in the run's scratch, grown once
// and kept, so the spilled sort's chunks share one slab — what it
// allocates must not grow by a chunk's scratch per chunk.
func TestSpillKeylessStableScratchKept(t *testing.T) {
	const chunk = 4096
	scratchBytes := uint64(chunk * taggedCodec.Size())
	alloc := func(chunks int) uint64 {
		in := makeTagged(1, chunks*chunk, uniformGen(7))[0]
		opt := DefaultOptions()
		opt.Stable = true
		opt.Spill = &SpillOptions{Dir: t.TempDir(), ChunkRecords: chunk, BufBytes: 4 << 10}
		path := filepath.Join(t.TempDir(), "in")
		if err := recordio.WriteFile(path, taggedCodec, in); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := cluster.Run(cluster.Topology{Nodes: 1, CoresPerNode: 1}, func(c *comm.Comm) error {
			sp, err := sortSegment(c, path, 0, int64(len(in)), taggedCodec, compareTagged, opt)
			if err != nil {
				return err
			}
			if sp.Records() != int64(len(in)) {
				t.Errorf("%d chunks: %d records out of %d", chunks, sp.Records(), len(in))
			}
			return sp.Remove()
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	few, many := alloc(8), alloc(16)
	if perChunk := (many - few) / 8; perChunk >= scratchBytes/2 {
		t.Errorf("each chunk past the eighth allocates %d bytes; a chunk's scratch is %d", perChunk, scratchBytes)
	}
}
