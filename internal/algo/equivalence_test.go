package algo

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/core"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
	"sdssort/internal/workload"
)

func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// ringCap is the trace ring the tests record into: room for every event
// of their sorts, which recorded checks.
const ringCap = 1 << 14

// recorded returns the events ring kept — only those of kind, unless
// kind is "" — and fails the test if the ring was too small to keep
// them all. It reports through t.Errorf, so any goroutine may call it.
func recorded(t testing.TB, ring *trace.Ring, kind string) []trace.Event {
	t.Helper()
	if n := ring.Dropped(); n > 0 {
		t.Errorf("trace ring dropped %d events", n)
	}
	evs := ring.Events()
	if kind == "" {
		return evs
	}
	return slices.DeleteFunc(evs, func(e trace.Event) bool { return e.Kind != kind })
}

// eqInput generates one rank's shard of a named equivalence workload.
type eqInput struct {
	name string
	gen  func(rank, p, perRank int) []float64
}

func presetGen(t testing.TB, name string) func(seed int64, n int) []float64 {
	t.Helper()
	pre, ok := workload.LookupPreset(name)
	if !ok {
		t.Fatalf("preset %q missing", name)
	}
	return pre.Gen
}

// eqInputs covers the issue's matrix: uniform, skewed, duplicate-heavy,
// and zero-length-per-rank shards (both some-empty and globally empty).
func eqInputs(t testing.TB) []eqInput {
	return []eqInput{
		{"uniform", func(rank, p, perRank int) []float64 {
			return presetGen(t, "uniform")(7+int64(rank)*613, perRank)
		}},
		{"zipf", func(rank, p, perRank int) []float64 {
			return presetGen(t, "zipf")(7+int64(rank)*613, perRank)
		}},
		{"dup", func(rank, p, perRank int) []float64 {
			return presetGen(t, "dup")(7+int64(rank)*613, perRank)
		}},
		{"allequal", func(rank, p, perRank int) []float64 {
			return presetGen(t, "allequal")(7+int64(rank)*613, perRank)
		}},
		{"empty-ranks", func(rank, p, perRank int) []float64 {
			if rank%2 == 1 {
				return nil
			}
			return presetGen(t, "zipf")(7+int64(rank)*613, perRank)
		}},
		{"all-empty", func(rank, p, perRank int) []float64 {
			return nil
		}},
	}
}

// reference returns the expected global output: every shard pooled and
// sorted ascending. float64 keys carry no payload, so any correct sort's
// concatenated output must match it byte for byte.
func reference(p, perRank int, gen func(rank, p, perRank int) []float64) []float64 {
	var all []float64
	for r := 0; r < p; r++ {
		all = append(all, gen(r, p, perRank)...)
	}
	sort.Float64s(all)
	return all
}

// checkEquivalent asserts the per-rank blocks concatenate to exactly the
// reference sequence.
func checkEquivalent(t *testing.T, outs [][]float64, want []float64) {
	t.Helper()
	var got []float64
	for _, blk := range outs {
		got = append(got, blk...)
	}
	if len(got) != len(want) {
		t.Fatalf("output has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func sortInproc(name string, p, perRank int, gen func(rank, p, perRank int) []float64, tr trace.Tracer, spill *core.SpillOptions) ([][]float64, error) {
	drv, err := New[float64](name)
	if err != nil {
		return nil, err
	}
	opt := DefaultOptions()
	opt.Core.Trace = tr
	opt.Core.Spill = spill
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	return cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
		return drv.Sort(context.Background(), c, gen(c.Rank(), p, perRank), codec.Float64{}, cmpF64, opt)
	})
}

// checkTraceComplete asserts the sort's trace envelope: every rank
// started and terminated exactly one sort, and no span was left open.
func checkTraceComplete(t *testing.T, events []trace.Event, p int) {
	t.Helper()
	a := trace.Analyze(events)
	if a.SortsStarted != p || a.SortsCompleted != p {
		t.Errorf("%d sorts started, %d completed, want %d of each", a.SortsStarted, a.SortsCompleted, p)
	}
	if len(a.UnterminatedRanks) != 0 {
		t.Errorf("ranks %v never completed their sort", a.UnterminatedRanks)
	}
	for _, sp := range trace.BuildSpans(events) {
		if sp.Open {
			t.Errorf("rank %d left span %q open", sp.Rank, sp.Name)
		}
	}
}

// sortTCP runs the same collective sort with every rank on its own
// localhost TCP transport, the multi-process wire path.
func sortTCP(name string, p, perRank int, gen func(rank, p, perRank int) []float64) ([][]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0") // rank 0 serves the registry on it
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	registry := ln.Addr().String()

	outs := make([][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := tcpcomm.New(tcpcomm.Config{
				Rank: rank, Size: p, Node: rank,
				Registry: registry, RegistryListener: ln, Timeout: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer tr.Close()
			c := comm.New(tr)
			drv, err := New[float64](name)
			if err != nil {
				errs[rank] = err
				return
			}
			out, err := drv.Sort(context.Background(), c, gen(rank, p, perRank), codec.Float64{}, cmpF64, DefaultOptions())
			if err != nil {
				errs[rank] = err
				return
			}
			outs[rank] = out
			errs[rank] = c.Barrier()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return outs, nil
}

// TestDriverEquivalenceInproc: every built-in driver produces the exact
// reference sequence on every equivalence workload, over the in-process
// fabric, and leaves a complete trace behind — sdstrace must count the
// sorts of an -algo hss|ams|hyksort|psrs run as it does an sds one.
// p=8 keeps ams genuinely multi-level (k=4 → two levels).
func TestDriverEquivalenceInproc(t *testing.T) {
	driverEquivalenceInproc(t, false)
}

// TestDriverEquivalenceInprocSpill repeats the in-process matrix with
// every exchange forced through the out-of-core tier: each driver's
// receive side spills to run files and merges back, and the output must
// still be the reference sequence, byte for byte.
func TestDriverEquivalenceInprocSpill(t *testing.T) {
	driverEquivalenceInproc(t, true)
}

func driverEquivalenceInproc(t *testing.T, forceSpill bool) {
	const p, perRank = 8, 3000
	for _, in := range builtins {
		for _, input := range eqInputs(t) {
			t.Run(in.Name+"/"+input.name, func(t *testing.T) {
				want := reference(p, perRank, input.gen)
				rec := trace.NewRing(ringCap)
				var spill *core.SpillOptions
				stats := &metrics.SpillStats{}
				if forceSpill {
					spill = &core.SpillOptions{Dir: t.TempDir(), Force: true, Stats: stats}
				}
				outs, err := sortInproc(in.Name, p, perRank, input.gen, rec, spill)
				if err != nil {
					t.Fatal(err)
				}
				checkEquivalent(t, outs, want)
				checkTraceComplete(t, recorded(t, rec, ""), p)
				if forceSpill && len(want) > 0 && stats.SpilledSorts.Load() == 0 {
					t.Fatal("a forced-spill sort never entered the spill tier")
				}
			})
		}
	}
}

// TestDriverEquivalenceTCP repeats the matrix over localhost TCP at a
// smaller size: the wire path must not change a single byte either.
func TestDriverEquivalenceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP matrix is slow in -short mode")
	}
	const p, perRank = 4, 1200
	for _, in := range builtins {
		for _, input := range eqInputs(t) {
			t.Run(in.Name+"/"+input.name, func(t *testing.T) {
				want := reference(p, perRank, input.gen)
				outs, err := sortTCP(in.Name, p, perRank, input.gen)
				if err != nil {
					t.Fatal(err)
				}
				checkEquivalent(t, outs, want)
			})
		}
	}
}

// TestDriverStableRejected: drivers without the Stable capability must
// reject a stable request instead of silently dropping the property.
func TestDriverStableRejected(t *testing.T) {
	const p, perRank = 4, 500
	gen := func(rank, p, perRank int) []float64 {
		return presetGen(t, "uniform")(int64(rank), perRank)
	}
	for _, in := range builtins {
		if in.Caps.Stable {
			continue
		}
		t.Run(in.Name, func(t *testing.T) {
			drv, err := New[float64](in.Name)
			if err != nil {
				t.Fatal(err)
			}
			topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
			_, err = cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
				opt := DefaultOptions()
				opt.Core.Stable = true
				return drv.Sort(context.Background(), c, gen(c.Rank(), p, perRank), codec.Float64{}, cmpF64, opt)
			})
			if err == nil {
				t.Fatalf("driver %q accepted a stable sort it cannot honour", in.Name)
			}
		})
	}
}

// TestDriverInvalidOptionsDrainGauge: a sort the shared exchange refuses
// before it moves a byte — here a negative StageBytes — still hands the
// driver's input reservation back to the (shared, long-lived) gauge.
func TestDriverInvalidOptionsDrainGauge(t *testing.T) {
	const p, perRank = 2, 100
	for _, name := range []string{NameHSS, NameAMS, NameHyk, NamePSRS} {
		t.Run(name, func(t *testing.T) {
			gauge := memlimit.New(1 << 20)
			topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
			_, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
				opt := DefaultOptions()
				opt.Core.Mem, opt.Core.StageBytes = gauge, -1
				return sortWith(name, c, workload.Uniform(int64(c.Rank()), perRank), opt)
			})
			if err == nil {
				t.Fatal("negative StageBytes accepted")
			}
			if used := gauge.Used(); used != 0 {
				t.Fatalf("gauge holds %d bytes after the rejected sort", used)
			}
		})
	}
}

// TestLevelsAttributeToWorldRank: a multi-level driver reports every
// level under the caller's world rank. ams with K = 2 takes three levels
// on 8 ranks, the later two over groups whose ranks are not the world's;
// each level's exchange span, with its send counts, must still name the
// rank whose sort it belongs to, and every span must hang under a span
// of that same rank.
func TestLevelsAttributeToWorldRank(t *testing.T) {
	const p, perRank, levels = 8, 500, 3
	ring := trace.NewRing(ringCap)
	opt := DefaultOptions()
	opt.K = 2
	opt.Core.Trace = ring
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	_, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
		return sortWith(NameAMS, c, workload.Uniform(int64(c.Rank()), perRank), opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	events := recorded(t, ring, "")
	checkTraceComplete(t, events, p)
	want := map[string]int{"exchange": levels, "sort": 1, "localsort": 1}
	counts := map[string][]int{}
	for kind := range want {
		counts[kind] = make([]int, p)
	}
	spans := trace.BuildSpans(events)
	rankOf := map[int64]int{}
	for _, sp := range spans {
		rankOf[sp.Span] = sp.Rank
		if byRank, ok := counts[sp.Name]; ok {
			byRank[sp.Rank]++
		}
		if _, ok := sp.Detail["sent"].([]int64); sp.Name == "exchange" && !ok {
			t.Errorf("rank %d: exchange span without its send counts: %v", sp.Rank, sp.Detail)
		}
	}
	for kind, byRank := range counts {
		for r, n := range byRank {
			if n != want[kind] {
				t.Errorf("rank %d: %d %s, want %d", r, n, kind, want[kind])
			}
		}
	}
	for _, sp := range spans {
		if pr, ok := rankOf[sp.Parent]; sp.Parent != 0 && (!ok || pr != sp.Rank) {
			t.Errorf("rank %d span %q hangs under span %d of rank %d", sp.Rank, sp.Name, sp.Parent, pr)
		}
	}
}
