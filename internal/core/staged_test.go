package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"sdssort/internal/checkpoint"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/faultnet"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
	"sdssort/internal/workload"
)

// TestSortStagedMatchesMonolithic runs the same input through the
// exchange on every driver path — sync-merge, sync-resort, overlap,
// stable, τm-merged — across stage sizes that are record-aligned,
// unaligned and far larger than any partition (the last moves every
// payload as one chunk, what StageBytes zero does): the chunk bound
// must never show in the output, and the reserved window must be
// exactly the one the codec's path needs.
func TestSortStagedMatchesMonolithic(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	configs := []struct {
		name string
		opt  Options
	}{
		{"sync-merge", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1 << 20; o.TauM = 0; return o }()},
		{"sync-resort", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1; o.TauM = 0; return o }()},
		{"overlap", func() Options { o := DefaultOptions(); o.TauO = 1 << 20; o.TauM = 0; return o }()},
		{"stable", func() Options { o := DefaultOptions(); o.Stable = true; o.TauM = 0; return o }()},
		{"merged", func() Options { o := DefaultOptions(); o.TauM = 1 << 40; return o }()},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			in := makeTagged(topo.Size(), 500, zipfGen(21, 1.3))
			for _, stage := range []int64{16, 100, 1 << 20} {
				// The zero-copy exchange fills chunks as slab views, so
				// only the incoming chunk occupies the staging window
				// (1x); the marshal fallback holds an encoded outgoing
				// chunk too (2x). Both variants must sort identically.
				for _, zc := range []bool{true, false} {
					name := fmt.Sprintf("stage%d", stage)
					window := effStage(stage, 16)
					if !zc {
						name += "-marshal"
						window *= 2
					}
					t.Run(name, func(t *testing.T) {
						opt := cfg.opt
						opt.StageBytes = stage
						opt.Exchange = &metrics.ExchangeStats{}
						out := runSortCodec(t, topo, in, taggedCodecFor(zc), opt)
						checkSorted(t, in, out, opt.Stable)
						if opt.Exchange.BytesStaged.Load() == 0 {
							t.Fatal("staged sort moved no bytes through the staging window")
						}
						if opt.Exchange.PeakStagingReserved.Load() != window {
							t.Fatalf("peak staging %d, want window %d",
								opt.Exchange.PeakStagingReserved.Load(), window)
						}
						if zc != opt.Exchange.ZeroCopyUsed() {
							t.Fatalf("zero-copy used = %v, want %v", opt.Exchange.ZeroCopyUsed(), zc)
						}
					})
				}
			}
		})
	}
}

// TestSortStableStagedIdenticalOutput: the stable sort is run-to-run
// deterministic, so a chunked exchange must produce byte-identical
// outputs to the one-chunk-per-peer one, not merely "some valid sorted
// order".
func TestSortStableStagedIdenticalOutput(t *testing.T) {
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 400, func(rank, i int) float64 {
		return float64((rank*31 + i) % 7) // heavy duplication
	})
	opt := DefaultOptions()
	opt.Stable = true
	opt.TauM = 0
	mono := runSort(t, topo, in, opt)
	opt.StageBytes = 48 // three records per chunk
	staged := runSort(t, topo, in, opt)
	equalOutputs(t, mono, staged, "staged-vs-unchunked")
}

// TestSortStagedPeakReservation is the staging acceptance bound: the
// peak memlimit reservation during the exchange is at most input +
// receive + the window, and the window is on the books — one chunk for
// a zero-copy codec (sends alias the work slab), two for a marshal-only
// one (an encoded outgoing chunk besides the incoming one). A chunk is
// the stage size, or with StageBytes zero the rank's largest per-peer
// payload: the unchunked exchange reserves what it really holds instead
// of materialising an unaccounted encoded copy.
func TestSortStagedPeakReservation(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	const perRank, recSize = 2000, 16
	in := makeTagged(topo.Size(), perRank, zipfGen(22, 1.1))
	for _, stage := range []int64{0, 64, 1 << 10} {
		for _, zc := range []bool{true, false} {
			name := fmt.Sprintf("stage%d", stage)
			if !zc {
				name += "-marshal"
			}
			t.Run(name, func(t *testing.T) {
				p := topo.Size()
				gauges := make([]*memlimit.Gauge, p)
				exch := make([]*metrics.ExchangeStats, p)
				traces := make([]*trace.Ring, p)
				out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
					r := c.Rank()
					opt := DefaultOptions()
					opt.TauM = 0
					opt.TauO = 0 // force the synchronous path: its peak is the bound we assert
					opt.StageBytes = stage
					opt.Mem = memlimit.New(1 << 40)
					opt.Exchange = &metrics.ExchangeStats{}
					opt.Trace = trace.NewRing(ringCap)
					gauges[r], exch[r], traces[r] = opt.Mem, opt.Exchange, opt.Trace.(*trace.Ring)
					local := append([]codec.Tagged(nil), in[r]...)
					return Sort(c, local, taggedCodecFor(zc), compareTagged, opt)
				})
				if err != nil {
					t.Fatal(err)
				}
				checkSorted(t, in, out, false)
				for r, g := range gauges {
					window := effStage(stage, recSize)
					if stage == 0 {
						// Largest per-peer payload, from this rank's own
						// partition histogram and what the others sent it.
						window = recSize * largestPayload(t, traces, r)
					}
					if !zc {
						window *= 2
					}
					if got := exch[r].PeakStagingReserved.Load(); got != window {
						t.Errorf("rank %d reserved a staging window of %d bytes, want %d", r, got, window)
					}
					bound := int64(len(in[r])+len(out[r]))*recSize + window
					if peak := g.Peak(); peak > bound {
						t.Errorf("rank %d peaked at %d bytes, above input+receive+window = %d", r, peak, bound)
					}
					if used := g.Used(); used != 0 {
						t.Errorf("rank %d still holds %d bytes after Sort returned", r, used)
					}
				}
			})
		}
	}
}

// largestPayload reads the per-rank exchange spans' sent counts (what
// each rank sends to every destination) and returns the most records
// rank r exchanges with any single peer, in either direction.
func largestPayload(t *testing.T, traces []*trace.Ring, r int) int64 {
	t.Helper()
	var most int64
	for src, rec := range traces {
		ex := spansNamed(t, rec, "exchange")
		if len(ex) != 1 {
			t.Fatalf("rank %d opened %d exchange spans", src, len(ex))
		}
		sent := ex[0].Detail["sent"].([]int64)
		most = max(most, sent[r]) // what r receives from src
		if src == r {
			most = max(most, slices.Max(sent)) // what r sends
		}
	}
	return most
}

// TestSortRepeatedGaugeZero reuses one long-lived gauge across repeated
// sorts on every exit path — completed (chunked and StageBytes zero), τm
// follower/leader, single rank, empty dataset — and requires the gauge
// back at zero after each run. This is the leak the issue's bug report
// describes: before the fix, every Sort left its reservations behind.
func TestSortRepeatedGaugeZero(t *testing.T) {
	g := memlimit.New(1 << 40)
	runs := []struct {
		name string
		topo cluster.Topology
		per  int
		opt  Options
	}{
		{"unchunked", cluster.Topology{Nodes: 2, CoresPerNode: 2}, 300, func() Options { o := DefaultOptions(); o.TauM = 0; return o }()},
		{"staged", cluster.Topology{Nodes: 2, CoresPerNode: 2}, 300, func() Options { o := DefaultOptions(); o.TauM = 0; o.StageBytes = 128; return o }()},
		{"merged", cluster.Topology{Nodes: 2, CoresPerNode: 3}, 200, func() Options { o := DefaultOptions(); o.TauM = 1 << 40; return o }()},
		{"single", cluster.Topology{Nodes: 1, CoresPerNode: 1}, 500, DefaultOptions()},
		{"empty", cluster.Topology{Nodes: 2, CoresPerNode: 2}, 0, DefaultOptions()},
		{"stable-staged", cluster.Topology{Nodes: 3, CoresPerNode: 1}, 300, func() Options { o := DefaultOptions(); o.Stable = true; o.StageBytes = 64; return o }()},
	}
	for round := 0; round < 2; round++ {
		for _, run := range runs {
			t.Run(fmt.Sprintf("round%d/%s", round, run.name), func(t *testing.T) {
				in := makeTagged(run.topo.Size(), run.per, uniformGen(int64(31+round)))
				opt := run.opt
				opt.Mem = g
				// cluster.Options.Mem turns any leak into a launch error
				// too; the explicit Used check below keeps the failure
				// readable.
				out, err := cluster.Gather(run.topo, cluster.Options{Mem: g}, func(c *comm.Comm) ([]codec.Tagged, error) {
					local := append([]codec.Tagged(nil), in[c.Rank()]...)
					return Sort(c, local, taggedCodec, compareTagged, opt)
				})
				if err != nil {
					t.Fatal(err)
				}
				checkSorted(t, in, out, opt.Stable)
				if used := g.Used(); used != 0 {
					t.Fatalf("gauge holds %d bytes after %s", used, run.name)
				}
			})
		}
	}
}

// TestSortGaugeZeroOnError: a Sort that fails mid-run — out of memory
// on one rank, torn-down fabric on the other — must still return every
// byte it managed to reserve before the failure.
func TestSortGaugeZeroOnError(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	// Enough for the 32KB of inputs but not for the receive buffers,
	// so the failure happens mid-sort with reservations already held.
	// The OOM rank's error tears the fabric down, so the peer fails
	// with a transport error — both exits must release.
	g := memlimit.New(40000)
	err := cluster.Run(topo, func(c *comm.Comm) error {
		data := make([]codec.Tagged, 1000)
		for i := range data {
			data[i] = codec.Tagged{Key: float64(i), Rank: int32(c.Rank())}
		}
		opt := DefaultOptions()
		opt.TauM = 0
		opt.Mem = g
		_, err := Sort(c, data, taggedCodec, compareTagged, opt)
		return err
	})
	if err == nil {
		t.Fatal("sort succeeded against a budget below its working set")
	}
	if !errors.Is(err, memlimit.ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory in the join", err)
	}
	if used := g.Used(); used != 0 {
		t.Fatalf("gauge holds %d bytes after a failed sort", used)
	}
}

// TestSortGaugeZeroAfterFaultedEpoch kills a rank mid-sort, lets the
// supervisor relaunch, and requires the shared gauge at zero at the
// end: the failed epoch's ranks must release on the error/panic path,
// not just on success.
func TestSortGaugeZeroAfterFaultedEpoch(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultnet.New(faultnet.Plan{KillRank: 1, KillAfterOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := makeTagged(topo.Size(), 300, uniformGen(33))
	g := memlimit.New(1 << 40)
	base := DefaultOptions()
	base.Mem = g
	base.StageBytes = 96
	opts := cluster.Options{
		MaxRestarts:   2,
		Mem:           g,
		WrapTransport: func(tr comm.Transport) comm.Transport { return inj.Wrap(tr) },
	}
	out, err := runSupervisedSort(t, topo, opts, store, in, base)
	if err != nil {
		t.Fatalf("supervised sort did not recover: %v", err)
	}
	checkSorted(t, in, out, false)
	if k := inj.Stats().Kills; k == 0 {
		t.Fatal("fault injector never fired; the test exercised nothing")
	}
	if used := g.Used(); used != 0 {
		t.Fatalf("gauge holds %d bytes after a faulted epoch recovered", used)
	}
}

// TestSortPhaseAttribution: the initial local sort must land in
// PhaseLocalSort, not in PhasePivotSelection (where it was charged
// before the fix and dwarfed the actual sampling cost).
func TestSortPhaseAttribution(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	const perRank = 30000 // large enough that the local sort takes measurable time
	in := makeTagged(topo.Size(), perRank, uniformGen(41))
	timers := make([]*metrics.PhaseTimer, topo.Size())
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
		opt := DefaultOptions()
		opt.TauM = 0
		opt.StageBytes = 4 << 10
		opt.Timer = metrics.NewPhaseTimer()
		timers[c.Rank()] = opt.Timer
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		return Sort(c, local, taggedCodec, compareTagged, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out, false)
	for r, tm := range timers {
		if tm.Get(metrics.PhaseLocalSort) <= 0 {
			t.Errorf("rank %d charged nothing to PhaseLocalSort over %d records", r, perRank)
		}
		if tm.Get(metrics.PhaseExchange) <= 0 {
			t.Errorf("rank %d charged nothing to PhaseExchange", r)
		}
	}
}

// TestSortTraceCompleteness: every rank's "sort" root span must close
// with its exit reason and record count, across the τm-merge,
// single-rank and empty worlds — the paths that used to return without
// the terminal record.
func TestSortTraceCompleteness(t *testing.T) {
	worlds := []struct {
		name   string
		topo   cluster.Topology
		per    int
		opt    Options
		reason string // the exit reason every (or the follower-complement) rank reports
	}{
		{"completed", cluster.Topology{Nodes: 2, CoresPerNode: 2}, 300,
			func() Options { o := DefaultOptions(); o.TauM = 0; return o }(), "completed"},
		{"merged", cluster.Topology{Nodes: 2, CoresPerNode: 3}, 200,
			func() Options { o := DefaultOptions(); o.TauM = 1 << 40; return o }(), "completed"},
		{"single", cluster.Topology{Nodes: 1, CoresPerNode: 1}, 300, DefaultOptions(), "single"},
		{"empty", cluster.Topology{Nodes: 2, CoresPerNode: 2}, 0,
			// TauM=0: an empty dataset always fits under τm, which would
			// turn this into a second merged world.
			func() Options { o := DefaultOptions(); o.TauM = 0; return o }(), "empty"},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			rec := trace.NewRing(ringCap)
			in := makeTagged(w.topo.Size(), w.per, uniformGen(51))
			opt := w.opt
			opt.Trace = rec
			out := runSort(t, w.topo, in, opt)
			checkSorted(t, in, out, false)

			p := w.topo.Size()
			a := trace.Analyze(recorded(t, rec, ""))
			if a.SortsStarted != p || a.SortsCompleted != p {
				t.Fatalf("%d sorts started, %d completed, want %d of each", a.SortsStarted, a.SortsCompleted, p)
			}
			if len(a.UnterminatedRanks) != 0 {
				t.Fatalf("ranks %v never completed their sort", a.UnterminatedRanks)
			}
			followers := a.DoneReasons["follower"]
			if w.name == "merged" {
				if want := p - w.topo.Nodes; followers != want {
					t.Fatalf("%d follower exits, want %d", followers, want)
				}
			} else if followers != 0 {
				t.Fatalf("unexpected follower exits: %v", a.DoneReasons)
			}
			if got := a.DoneReasons[w.reason]; got != p-followers {
				t.Fatalf("reason %q on %d ranks, want %d (all: %v)", w.reason, got, p-followers, a.DoneReasons)
			}
			// Every root span's end must carry its record count.
			var records int64
			for _, s := range spansNamed(t, rec, "sort") {
				n, ok := s.Detail["records"].(int)
				if !ok {
					t.Fatalf("sort span without a records field: %v", s.Detail)
				}
				records += int64(n)
			}
			if int(records) != p*w.per {
				t.Fatalf("sort spans account for %d records, want %d", records, p*w.per)
			}
		})
	}
}

// TestSortStagedFaultRecovery rides the CI soak lane (its name matches
// the Fault|Retry|Reconnect|Recovery regex): StageBytes and the kill
// schedule are drawn from FAULTNET_SEED, so repeated soak runs push
// faults across different chunk boundaries of the staged exchange.
func TestSortStagedFaultRecovery(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("FAULTNET_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad FAULTNET_SEED %q: %v", s, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewSource(seed))
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	// Deliberately odd stage sizes: rounding to whole records and the
	// final short chunk of each partition both get exercised.
	stage := int64(1 + rng.Intn(600))
	base := DefaultOptions()
	base.TauM = 0
	base.StageBytes = stage
	store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultnet.New(faultnet.Plan{
		Seed:         seed,
		KillRank:     rng.Intn(topo.Size()),
		KillAfterOps: int64(2 + rng.Intn(12)),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := makeTagged(topo.Size(), 300, uniformGen(seed))
	g := memlimit.New(1 << 40)
	base.Mem = g
	opts := cluster.Options{
		MaxRestarts:   3,
		Mem:           g,
		WrapTransport: func(tr comm.Transport) comm.Transport { return inj.Wrap(tr) },
	}
	out, err := runSupervisedSort(t, topo, opts, store, in, base)
	if err != nil {
		t.Fatalf("stage=%d seed=%d: supervised sort did not recover: %v", stage, seed, err)
	}
	checkSorted(t, in, out, false)
	if used := g.Used(); used != 0 {
		t.Fatalf("stage=%d seed=%d: gauge holds %d bytes after recovery", stage, seed, used)
	}
}

// BenchmarkExchange compares the exchange's two encodings on the same
// sort: zero-copy against the marshal fallback, selected by hiding the
// codec's capabilities. peak-staging-bytes reports the largest
// staging-window reservation — 1x the stage window for zero-copy, 2x
// for marshal.
func BenchmarkExchange(b *testing.B) {
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
	run := func(b *testing.B, cd codec.Codec[float64]) {
		stats := &metrics.ExchangeStats{}
		b.SetBytes(int64(topo.Size()) * perRank * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt := DefaultOptions()
			opt.TauM = 0
			opt.TauO = 0 // synchronous path: both variants run the same all-to-all shape
			opt.StageBytes = 64 << 10
			opt.Exchange = stats
			err := cluster.RunOpts(topo, cluster.Options{}, func(c *comm.Comm) error {
				local := append([]float64(nil), parts[c.Rank()]...)
				_, err := Sort(c, local, cd, cmp, opt)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.PeakStagingReserved.Load()), "peak-staging-bytes")
	}
	b.Run("staged-zerocopy", func(b *testing.B) { run(b, codec.Float64{}) })
	b.Run("staged-marshal", func(b *testing.B) { run(b, plainCodec[float64]{codec.Float64{}}) })
}
