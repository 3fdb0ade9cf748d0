package core

import (
	"os"
	"slices"
	"testing"

	"sdssort/internal/checkpoint"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/faultnet"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
)

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

// spansNamed returns the spans the ring's events build that are named
// name, through recorded's check that the ring kept every event.
func spansNamed(t testing.TB, ring *trace.Ring, name string) []trace.SpanRecord {
	t.Helper()
	return slices.DeleteFunc(trace.BuildSpans(recorded(t, ring, "")), func(s trace.SpanRecord) bool { return s.Name != name })
}

// TestSortEmitsTrace checks the observable span tree of one sort: a
// completed root per rank, the duplicated-pivot report on skewed data,
// and the exchange with plausible volumes.
func TestSortEmitsTrace(t *testing.T) {
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 1}
	rec := trace.NewRing(ringCap)
	in := makeTagged(topo.Size(), 400, func(rank, i int) float64 {
		return float64(i % 2) // heavy duplication forces pivot runs
	})
	opt := DefaultOptions()
	opt.TauM = 0
	opt.Trace = rec
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)

	roots := spansNamed(t, rec, "sort")
	if len(roots) != topo.Size() {
		t.Fatalf("%d sort spans, want %d", len(roots), topo.Size())
	}
	for _, s := range roots {
		if s.Open || s.Detail["reason"] != "completed" {
			t.Fatalf("rank %d sort span open=%v reason %v, want completed", s.Rank, s.Open, s.Detail["reason"])
		}
	}
	dup := 0
	for _, s := range spansNamed(t, rec, "pivots") {
		if s.Detail["dup_runs"] != nil {
			dup++
		}
	}
	if dup == 0 {
		t.Fatal("no pivots span reported duplicated pivots on 2-value data")
	}
	exchanges := spansNamed(t, rec, "exchange")
	if len(exchanges) != topo.Size() {
		t.Fatalf("%d exchange spans", len(exchanges))
	}
	var totalRecv int64
	for _, s := range exchanges {
		// The in-memory recorder keeps native types (the JSONL sink
		// would render them as JSON numbers).
		totalRecv += s.Detail["recv_records"].(int64)
	}
	if int(totalRecv) != topo.Size()*400 {
		t.Fatalf("exchange spans account for %v records, want %d", totalRecv, topo.Size()*400)
	}
}

// TestSortTraceNodeMerge checks the leader/follower split on the τm
// path, read off the nodemerge spans and the followers' root spans.
func TestSortTraceNodeMerge(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 3}
	rec := trace.NewRing(ringCap)
	in := makeTagged(topo.Size(), 200, uniformGen(60))
	opt := DefaultOptions()
	opt.TauM = 1 << 40
	opt.Trace = rec
	err := cluster.Run(topo, func(c *comm.Comm) error {
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		_, err := Sort(c, local, taggedCodec, compareTagged, opt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	leaders, followers := 0, 0
	for _, s := range spansNamed(t, rec, "nodemerge") {
		if s.Detail["leader"] == true && s.Detail["leaders"] == 2 {
			leaders++
		} else if s.Detail["leader"] == false {
			followers++
		}
	}
	if leaders != 2 || followers != 4 {
		t.Fatalf("%d leaders of 2, %d followers, want 2 and 4", leaders, followers)
	}
	if a := trace.Analyze(recorded(t, rec, "")); a.DoneReasons["follower"] != 4 {
		t.Fatalf("done reasons %v, want 4 followers", a.DoneReasons)
	}
}

// TestFailedExchangeClosesSpans kills a rank's transport in the middle
// of the data exchange — one-record chunks make the exchange hundreds
// of operations long, so operation 400 is deep inside it — on the
// synchronous, overlapped and spilled paths. The sort fails on every
// rank, and every span it opened must still be closed: the failed
// exchange ends with reason "error" like the root span above it,
// instead of dangling open in the timeline — and the staging window
// drains back to zero, no sender left holding a chunk.
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
			rec := trace.NewRing(ringCap)
			in := makeTagged(topo.Size(), 400, uniformGen(77))
			opt := DefaultOptions()
			opt.TauM = 0
			opt.StageBytes = 16
			opt.Trace = rec
			opt.Exchange = &metrics.ExchangeStats{}
			path.tune(&opt)
			err = cluster.RunOpts(topo, cluster.Options{WrapTransport: inj.Wrap}, func(c *comm.Comm) error {
				local := append([]codec.Tagged(nil), in[c.Rank()]...)
				_, err := Sort(c, local, taggedCodec, compareTagged, opt)
				return err
			})
			if err == nil || inj.Stats().Kills != 1 {
				t.Fatalf("err = %v with %d kills, want a sort failed by one kill", err, inj.Stats().Kills)
			}
			if w := opt.Exchange.WindowBytes.Load(); w != 0 {
				t.Errorf("WindowBytes = %d after every rank returned, want 0", w)
			}
			failed := 0
			for _, sp := range trace.BuildSpans(recorded(t, rec, "")) {
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

// TestFailedPhaseClosesSpans is TestFailedExchangeClosesSpans for the
// phases before the exchange. With synchronous checkpoints the killed
// rank's local-sort manifest exists the moment that phase commits, so a
// kill keyed on it fires on the rank's next transport operation: the τm
// sizing collective and node-merge hand-off when merging is on, the
// pivot-selection collective when it is off. The third case resumes
// from a local-sort cut whose snapshot was truncated on one rank, so
// that rank fails in the load and the others in whatever collective
// they reach without it. Every rank fails, and no span may be left
// open: the phase the failure landed in closes with reason "error".
func TestFailedPhaseClosesSpans(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	const victim = 1
	in := makeTagged(topo.Size(), 400, uniformGen(78))
	run := func(t *testing.T, opt Options, wrap func(comm.Transport) comm.Transport) []trace.SpanRecord {
		t.Helper()
		rec := trace.NewRing(ringCap)
		opt.Trace = rec
		err := cluster.RunOpts(topo, cluster.Options{WrapTransport: wrap}, func(c *comm.Comm) error {
			local := append([]codec.Tagged(nil), in[c.Rank()]...)
			_, err := Sort(c, local, taggedCodec, compareTagged, opt)
			return err
		})
		if err == nil {
			t.Fatal("sort succeeded, want it failed by the injected fault")
		}
		// Snapshots the failed ranks enqueued may still be in flight.
		opt.Checkpoint.Wait()
		spans := trace.BuildSpans(recorded(t, rec, ""))
		for _, sp := range spans {
			if sp.Open {
				t.Errorf("rank %d left span %q open", sp.Rank, sp.Name)
			}
		}
		return spans
	}
	failedIn := func(t *testing.T, spans []trace.SpanRecord, name string) {
		t.Helper()
		for _, sp := range spans {
			if sp.Name == name && sp.Detail["reason"] == "error" {
				return
			}
		}
		t.Fatalf("no %q span closed with reason error: the fault missed the phase", name)
	}
	for _, phase := range []struct {
		name string
		tauM int64
	}{{"nodemerge", 1 << 40}, {"pivots", 0}} {
		t.Run(phase.name, func(t *testing.T) {
			store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
			if err != nil {
				t.Fatal(err)
			}
			inj, err := faultnet.New(faultnet.Plan{
				KillRank:      victim,
				KillAfterFile: store.ManifestPath(0, checkpoint.PhaseLocalSort, victim),
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := DefaultOptions()
			opt.TauM = phase.tauM
			opt.Checkpoint = &Checkpointing{Store: store, Sync: true}
			spans := run(t, opt, inj.Wrap)
			if inj.Stats().Kills != 1 {
				t.Fatalf("%d kills, want 1", inj.Stats().Kills)
			}
			failedIn(t, spans, phase.name)
		})
	}
	t.Run("resume-truncated", func(t *testing.T) {
		store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.TauM = 0
		runSortCkpt(t, topo, in, ckptOpt(opt, store, 0, checkpoint.Cut{}))
		if err := os.Truncate(store.DataPath(0, checkpoint.PhaseLocalSort, victim), 100); err != nil {
			t.Fatal(err)
		}
		spans := run(t, ckptOpt(opt, store, 1, checkpoint.Cut{Epoch: 0, Phase: checkpoint.PhaseLocalSort}), nil)
		failedIn(t, spans, "sort")
	})
}
