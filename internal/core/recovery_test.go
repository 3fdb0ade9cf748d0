package core

import (
	"os"
	"slices"
	"strings"
	"sync"
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

// ckptOpt returns sort options with checkpointing into store at the
// given epoch, resuming from cut.
func ckptOpt(base Options, store *checkpoint.Store, epoch int, cut checkpoint.Cut) Options {
	base.Checkpoint = &Checkpointing{Store: store, Epoch: epoch, Resume: cut}
	return base
}

// runSortCkpt is runSort with per-epoch checkpoint options; it drains
// the async snapshot writer before returning, so the caller may
// inspect the store.
func runSortCkpt(t *testing.T, topo cluster.Topology, in [][]codec.Tagged, opt Options) [][]codec.Tagged {
	t.Helper()
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		return Sort(c, local, taggedCodec, compareTagged, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Checkpoint.Wait(); err != nil {
		t.Fatal(err)
	}
	return out
}

func equalOutputs(t *testing.T, want, got [][]codec.Tagged, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d ranks", label, len(want), len(got))
	}
	for r := range want {
		if len(want[r]) != len(got[r]) {
			t.Fatalf("%s: rank %d has %d records, want %d", label, r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if want[r][i] != got[r][i] {
				t.Fatalf("%s: rank %d record %d is %v, want %v", label, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestRecoveryResumeEachPhase replays a checkpointed run from every
// phase cut in turn — without faults — and requires output identical to
// the original, across the unmerged, merged and stable driver modes.
func TestRecoveryResumeEachPhase(t *testing.T) {
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 2}
	// Duplicate keys in every mode: the overlapped exchange merges its
	// sources in a fixed order, so ties land run-to-run identically in
	// the non-stable modes too, and these tests compare outputs exactly.
	in := makeTagged(topo.Size(), 400, func(rank, i int) float64 {
		return float64((rank*31 + i*17) % 97)
	})
	modes := []struct {
		name string
		opt  Options
	}{
		{"unmerged", func() Options { o := DefaultOptions(); o.TauM = 0; return o }()},
		{"merged", func() Options { o := DefaultOptions(); o.TauM = 1 << 40; return o }()},
		{"stable", func() Options { o := DefaultOptions(); o.TauM = 0; o.Stable = true; return o }()},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
			if err != nil {
				t.Fatal(err)
			}
			baseline := runSortCkpt(t, topo, in, ckptOpt(mode.opt, store, 0, checkpoint.Cut{}))
			checkSorted(t, in, baseline, mode.opt.Stable)
			cut, ok := store.LatestConsistent()
			if !ok || cut != (checkpoint.Cut{Epoch: 0, Phase: checkpoint.PhaseFinal}) {
				t.Fatalf("after a full run the cut is %+v ok=%v, want final@0", cut, ok)
			}
			for epoch, ph := range []checkpoint.Phase{checkpoint.PhaseLocalSort, checkpoint.PhasePartition, checkpoint.PhaseFinal} {
				resumed := runSortCkpt(t, topo, in,
					ckptOpt(mode.opt, store, epoch+1, checkpoint.Cut{Epoch: 0, Phase: ph}))
				equalOutputs(t, baseline, resumed, "resume@"+ph.String())
			}
		})
	}
}

// TestResumeAccounting: a resume adopts whatever its snapshot holds, and
// that can be more than the input the caller reserved for — a degraded
// resume starts with no input at all and loads its own records plus a
// share of the dead rank's; a τm leader resuming past the merge loads
// its whole node's. At every cut the rank's ledger must cover the
// loaded records while it holds them and drain to zero when the sort
// returns, on the leaders' path and on the followers' drop-out alike.
func TestResumeAccounting(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	const perRank = 300
	in := makeTagged(topo.Size(), perRank, func(rank, i int) float64 {
		return float64(uint32((i*topo.Size() + rank) * 2654435761))
	})
	recSize := int64(taggedCodec.Size())
	for _, tc := range []struct {
		name    string
		tauM    int64
		degrade bool // resume on the three survivors of rank 3, with no input
		cut     checkpoint.Phase
	}{
		{"degraded@localsort", 0, true, checkpoint.PhaseLocalSort},
		{"degraded@partition", 0, true, checkpoint.PhasePartition},
		{"degraded@final", 0, true, checkpoint.PhaseFinal},
		{"merged@partition", 1 << 40, false, checkpoint.PhasePartition},
		{"merged@final", 1 << 40, false, checkpoint.PhaseFinal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.TauM = tc.tauM
			store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
			if err != nil {
				t.Fatal(err)
			}
			baseline := runSortCkpt(t, topo, in, ckptOpt(opt, store, 0, checkpoint.Cut{}))
			rtopo, cut, input := topo, checkpoint.Cut{Epoch: 0, Phase: tc.cut}, in
			if tc.degrade {
				store, cut, err = checkpoint.Redistribute(store, cut, []int{3}, 1, taggedCodec, compareTagged)
				if err != nil {
					t.Fatal(err)
				}
				rtopo, input = cluster.Topology{Nodes: 3, CoresPerNode: 1}, make([][]codec.Tagged, 3)
			}
			rec := trace.NewRing(ringCap)
			gauges := make([]*memlimit.Gauge, rtopo.Size())
			for r := range gauges {
				gauges[r] = memlimit.New(1 << 30)
			}
			ck := &Checkpointing{Store: store, Epoch: 2, Resume: cut}
			skew := metrics.NewSkewStats()
			out, err := cluster.Gather(rtopo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
				ropt := opt
				ropt.Checkpoint, ropt.Trace, ropt.Mem, ropt.Skew = ck, rec, gauges[c.Rank()], skew
				return Sort(c, append([]codec.Tagged(nil), input[c.Rank()]...), taggedCodec, compareTagged, ropt)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ck.Wait(); err != nil {
				t.Fatal(err)
			}
			var flatWant, flatGot []codec.Tagged
			for _, part := range baseline {
				flatWant = append(flatWant, part...)
			}
			for _, part := range out {
				flatGot = append(flatGot, part...)
			}
			equalOutputs(t, [][]codec.Tagged{flatWant}, [][]codec.Tagged{flatGot}, tc.name)

			resumes := slices.DeleteFunc(spansNamed(t, rec, "checkpoint"), func(s trace.SpanRecord) bool { return s.Detail["op"] != "load" })
			if len(resumes) != rtopo.Size() {
				t.Fatalf("%d checkpoint loads, want %d", len(resumes), rtopo.Size())
			}
			grew := false
			for _, s := range resumes {
				loaded := int64(s.Detail["records"].(int)) * recSize
				grew = grew || loaded > int64(len(input[s.Rank]))*recSize
				if peak := gauges[s.Rank].Peak(); peak < loaded {
					t.Errorf("rank %d loaded %d bytes but its ledger peaked at %d", s.Rank, loaded, peak)
				}
			}
			if !grew {
				t.Fatal("no rank loaded more than its input: the case exercises nothing")
			}
			for r, g := range gauges {
				if used := g.Used(); used != 0 {
					t.Errorf("rank %d gauge holds %d bytes after the resumed sort", r, used)
				}
			}
			// A resume past the local sort still takes that phase's
			// input-side load observation, over the loaded records.
			inputSide := 0
			for _, e := range recorded(t, rec, "skew.phase") {
				if e.Detail["phase"] == metrics.SkewLocalSort {
					inputSide++
				}
			}
			// (Redistribute demotes a partition cut to a local-sort one.)
			if resumedAtLocalSort := cut.Phase == checkpoint.PhaseLocalSort; (inputSide == 1) != resumedAtLocalSort {
				t.Errorf("%d input-side skew observations resuming at %s", inputSide, cut.Phase)
			}
			if followers := trace.Analyze(recorded(t, rec, "")).DoneReasons["follower"]; tc.tauM > 0 && tc.cut == checkpoint.PhasePartition && followers != 2 {
				t.Fatalf("%d follower drop-outs on the merged partition resume, want 2", followers)
			}
		})
	}
}

// runSupervisedSort runs the supervised sort loop the way a launcher
// would: each epoch agrees on the latest consistent cut and resumes
// from it.
func runSupervisedSort(t *testing.T, topo cluster.Topology, opts cluster.Options, store *checkpoint.Store, in [][]codec.Tagged, base Options) ([][]codec.Tagged, error) {
	t.Helper()
	outputs := make([][]codec.Tagged, topo.Size())
	var mu sync.Mutex
	err := cluster.RunSupervised(topo, opts, func(ep cluster.Epoch, c *comm.Comm) error {
		opt := base
		ck := &Checkpointing{Store: store, Epoch: ep.N}
		if ep.N > 0 {
			cut, ok, err := checkpoint.AgreeCut(c, store)
			if err != nil {
				return err
			}
			if ok {
				ck.Resume = cut
			}
		}
		opt.Checkpoint = ck
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		out, err := Sort(c, local, taggedCodec, compareTagged, opt)
		if err != nil {
			// A failed epoch's snapshots may still be in flight; let them
			// land before the test's store directory is torn down.
			ck.Wait()
			return err
		}
		mu.Lock()
		outputs[c.Rank()] = out
		mu.Unlock()
		// Durability before the exit barrier, as a real launcher would
		// insist; the barrier also gives a rank whose kill trigger is
		// its own final checkpoint a transport operation to die on.
		if err := ck.Wait(); err != nil {
			return err
		}
		return c.Barrier()
	})
	return outputs, err
}

// TestRecoveryKillAtPhaseBoundaries is the tentpole's acceptance test:
// a rank is killed at each checkpointed phase boundary in turn, and the
// supervised sort must finish with output identical to the fault-free
// run using exactly one restart per kill.
func TestRecoveryKillAtPhaseBoundaries(t *testing.T) {
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 2}
	const killRank = 4 // a node leader under the block layout, so it owns data in merged mode too
	// Duplicate keys: the fault-free output is deterministic even so (see
	// TestRecoveryResumeEachPhase), and "identical to the baseline" then
	// also pins where ties land.
	in := makeTagged(topo.Size(), 300, func(rank, i int) float64 {
		return float64((rank*31 + i*17) % 97)
	})
	modes := []struct {
		name string
		opt  Options
	}{
		{"unmerged", func() Options { o := DefaultOptions(); o.TauM = 0; return o }()},
		{"merged", func() Options { o := DefaultOptions(); o.TauM = 1 << 40; return o }()},
	}
	phases := []checkpoint.Phase{checkpoint.PhaseLocalSort, checkpoint.PhasePartition, checkpoint.PhaseFinal}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			// Fault-free baseline.
			store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := runSupervisedSort(t, topo, cluster.Options{}, store, in, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			checkSorted(t, in, baseline, false)

			for _, ph := range phases {
				t.Run(ph.String(), func(t *testing.T) {
					store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
					if err != nil {
						t.Fatal(err)
					}
					inj, err := faultnet.New(faultnet.Plan{
						KillRank:      killRank,
						KillAfterFile: store.ManifestPath(0, ph, killRank),
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
					got, err := runSupervisedSort(t, topo, opts, store, in, mode.opt)
					if err != nil {
						t.Fatalf("supervised sort did not recover from a kill at %s: %v", ph, err)
					}
					if k := inj.Stats().Kills; k != 1 {
						t.Fatalf("kill fired %d times, want 1", k)
					}
					if r := len(recorded(t, rec, "supervisor.restart")); r != 1 {
						t.Fatalf("recovered with %d restarts, want exactly 1", r)
					}
					equalOutputs(t, baseline, got, "kill@"+ph.String())
				})
			}
		})
	}
}

// TestRecoveryRestartBudgetExhausted: with no restart budget, a killed
// rank must surface as a typed failure wrapping comm.ErrPeerLost — not
// a hang, not an untyped error.
func TestRecoveryRestartBudgetExhausted(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	store, err := checkpoint.NewStore(t.TempDir(), topo.Size())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultnet.New(faultnet.Plan{KillRank: 1, KillAfterOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := makeTagged(topo.Size(), 200, func(rank, i int) float64 { return float64(rank*1000 + i) })
	opts := cluster.Options{
		MaxRestarts:   0,
		WrapTransport: func(tr comm.Transport) comm.Transport { return inj.Wrap(tr) },
	}
	_, err = runSupervisedSort(t, topo, opts, store, in, DefaultOptions())
	if err == nil {
		t.Fatal("supervised sort succeeded with a killed rank and no restart budget")
	}
	if rank, ok := comm.PeerLost(err); !ok || rank != 1 {
		t.Fatalf("want comm.ErrPeerLost naming rank 1, got: %v", err)
	}
	if !strings.Contains(err.Error(), "restart budget 0 exhausted") {
		t.Fatalf("missing restart-budget context: %v", err)
	}
}

// benchStoreDir places benchmark checkpoint stores on /dev/shm when
// the host has it: checkpoints target the node-local burst-buffer
// tier (multi-level checkpointing's first level — the paper's Cray
// testbed drains to the parallel FS asynchronously), and on CI boxes
// the root disk is slower than the sort itself, which would measure
// the disk rather than the checkpoint machinery.
func benchStoreDir(b *testing.B) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "sdsckpt-*")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// BenchmarkSortCheckpoint measures the checkpointing overhead on the
// uniform workload: the "on" variant should stay within a few percent
// of "off".
func BenchmarkSortCheckpoint(b *testing.B) {
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
	run := func(b *testing.B, withCkpt bool) {
		b.SetBytes(int64(topo.Size()) * perRank * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt := DefaultOptions()
			if withCkpt {
				store, err := checkpoint.NewStore(benchStoreDir(b), topo.Size())
				if err != nil {
					b.Fatal(err)
				}
				opt.Checkpoint = &Checkpointing{Store: store}
			}
			err := cluster.RunOpts(topo, cluster.Options{}, func(c *comm.Comm) error {
				local := append([]float64(nil), parts[c.Rank()]...)
				_, err := Sort(c, local, codec.Float64{}, cmp, opt)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			// Durability is part of the measured cost, as in a real job.
			if err := opt.Checkpoint.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
