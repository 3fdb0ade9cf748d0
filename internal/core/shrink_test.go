package core

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sdssort/internal/checkpoint"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/faultnet"
	"sdssort/internal/memlimit"
	"sdssort/internal/trace"
)

// shrinkSeed varies the fault schedule (and through it the kill rank)
// across CI soak-lane runs: FAULTNET_SEED=n go test -run Shrink.
func shrinkSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("FAULTNET_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad FAULTNET_SEED %q: %v", s, err)
	}
	t.Logf("fault schedule seed %d", v)
	return v
}

// shrinkPolicy builds the ShrinkPolicy a launcher would install: scan
// the failed world's store for its last consistent cut and rebuild it
// for the survivors (checkpoint.RedistributeLatest).
func shrinkPolicy(dir string, minRanks int) cluster.ShrinkPolicy {
	return cluster.ShrinkPolicy{
		Enabled:  true,
		MinRanks: minRanks,
		Redistribute: func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error) {
			return checkpoint.RedistributeLatest(dir, oldSize, lost, newEpoch, taggedCodec, compareTagged)
		},
	}
}

// runShrinkSort is the supervised sort loop of a shrink-capable
// launcher. Every epoch builds the store for its own world size (the
// world stamp keeps differently-sized cuts in the same directory from
// shadowing each other); a degraded epoch resumes from the
// redistributed cut the supervisor hands it instead of negotiating one,
// and starts with no local input — its records come from the store.
func runShrinkSort(t *testing.T, topo cluster.Topology, opts cluster.Options, dir string, in [][]codec.Tagged, base Options) ([][]codec.Tagged, error) {
	t.Helper()
	var mu sync.Mutex
	var outs [][]codec.Tagged
	err := cluster.RunSupervised(topo, opts, func(ep cluster.Epoch, c *comm.Comm) error {
		store, err := checkpoint.NewStore(dir, c.Size())
		if err != nil {
			return err
		}
		opt := base
		ck := &Checkpointing{Store: store, Epoch: ep.N}
		switch {
		case ep.Degraded:
			ck.Resume = ep.Resume
		case ep.N > 0:
			cut, ok, err := checkpoint.AgreeCut(c, store)
			if err != nil {
				return err
			}
			if ok {
				ck.Resume = cut
			}
		}
		opt.Checkpoint = ck
		var local []codec.Tagged
		if !ep.Degraded {
			local = append([]codec.Tagged(nil), in[c.Rank()]...)
		}
		out, err := Sort(c, local, taggedCodec, compareTagged, opt)
		// Drain the async snapshot writer on every path: the supervisor
		// may redistribute this store the moment the epoch fails, and it
		// must see every enqueued snapshot committed or absent — not in
		// flight.
		if werr := ck.Wait(); err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
		mu.Lock()
		if len(outs) != c.Size() {
			outs = make([][]codec.Tagged, c.Size())
		}
		outs[c.Rank()] = out
		mu.Unlock()
		return c.Barrier()
	})
	return outs, err
}

// TestShrinkSoak is the tentpole's acceptance scenario: 4 ranks, one
// SIGKILL-equivalent mid-exchange, and the job must complete on the 3
// survivors from the last consistent cut — a degraded resume, not a
// relaunch — with globally sorted output, the full record multiset, and
// the memory gauge drained to zero.
func TestShrinkSoak(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	seed := shrinkSeed(t)
	killRank := int(seed % int64(topo.Size()))
	if killRank < 0 {
		killRank += topo.Size()
	}
	dir := t.TempDir()
	in := makeTagged(topo.Size(), 300, func(rank, i int) float64 {
		return float64(uint32((i*topo.Size() + rank) * 2654435761))
	})

	// The kill trigger is the victim's own partition manifest: the rank
	// dies on its first transport operation after that snapshot commits,
	// i.e. somewhere inside the all-to-all exchange.
	full, err := checkpoint.NewStore(dir, topo.Size())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultnet.New(faultnet.Plan{
		Seed:          seed,
		KillRank:      killRank,
		KillAfterFile: full.ManifestPath(0, checkpoint.PhasePartition, killRank),
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRing(ringCap)
	gauge := memlimit.New(0)
	opt := DefaultOptions()
	opt.Mem = gauge
	opts := cluster.Options{
		MaxRestarts:   1,
		Trace:         rec,
		Mem:           gauge,
		Shrink:        shrinkPolicy(dir, 2),
		WrapTransport: func(tr comm.Transport) comm.Transport { return inj.Wrap(tr) },
	}
	outs, err := runShrinkSort(t, topo, opts, dir, in, opt)
	if err != nil {
		t.Fatalf("shrink resume failed (kill rank %d): %v", killRank, err)
	}
	if len(outs) != topo.Size()-1 {
		t.Fatalf("finished on %d ranks, want %d survivors", len(outs), topo.Size()-1)
	}
	checkSorted(t, in, outs, false)

	// The recovery must have been a shrink, not a relaunch.
	if k := inj.Stats().Kills; k != 1 {
		t.Fatalf("kill fired %d times, want 1", k)
	}
	if ev := recorded(t, rec, "supervisor.shrink"); len(ev) != 1 {
		t.Fatalf("supervisor.shrink events: %d, want 1: %v", len(ev), supervisorTrail(t, rec))
	} else if lost, _ := ev[0].Detail["lost"].([]int); len(lost) != 1 {
		t.Fatalf("the shrink shed ranks %v, want exactly one", ev[0].Detail["lost"])
	}
	if ev := recorded(t, rec, "supervisor.restart"); len(ev) != 0 {
		t.Fatalf("the world was relaunched, not shrunk: %v", supervisorTrail(t, rec))
	}
	if ok := okEpochs(t, rec); len(ok) != 1 || ok[0].Detail["degraded"] != true {
		t.Fatalf("the succeeding epoch is missing or not degraded: %v", ok)
	}
	// launchSized asserts gauge drain per epoch; this is the end-to-end
	// restatement across the whole supervised run.
	if used := gauge.Used(); used != 0 {
		t.Fatalf("memory gauge holds %d bytes after the degraded run", used)
	}
}

// TestShrinkCascade injects a second loss into the degraded epoch —
// the cascading-failure case: the shrunken world dies before making
// progress, a second shrink is blocked by MinRanks, and the supervisor
// falls back to a full relaunch, which resumes from the original
// full-world cut (the shrunken cut is invisible to the full-size store)
// within the same MaxRestarts budget.
func TestShrinkCascade(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	seed := shrinkSeed(t)
	dir := t.TempDir()
	in := makeTagged(topo.Size(), 300, func(rank, i int) float64 {
		return float64(uint32((i*topo.Size() + rank) * 2654435761))
	})

	full, err := checkpoint.NewStore(dir, topo.Size())
	if err != nil {
		t.Fatal(err)
	}
	// First kill: world rank 1 dies mid-exchange of the full world.
	inj1, err := faultnet.New(faultnet.Plan{
		Seed:          seed,
		KillRank:      1,
		KillAfterFile: full.ManifestPath(0, checkpoint.PhasePartition, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Second kill: triggered by a marker the shrink writes once it has
	// committed the redistributed cut — so a survivor (rank 2 in the
	// shrunken numbering) dies on its first operation of the degraded
	// epoch, before it can make progress. (The cut's own manifests will
	// not do: whether the survivors' partition snapshots commit before
	// they see the first loss decides which phase the cut is at.)
	shrunkMarker := filepath.Join(t.TempDir(), "shrunk")
	inj2, err := faultnet.New(faultnet.Plan{
		Seed:          seed + 1,
		KillRank:      2,
		KillAfterFile: shrunkMarker,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRing(ringCap)
	gauge := memlimit.New(0)
	opt := DefaultOptions()
	opt.Mem = gauge
	opts := cluster.Options{
		MaxRestarts: 2,
		Trace:       rec,
		Mem:         gauge,
		// MinRanks 3 forbids shrinking below 3 ranks, so the second loss
		// cannot shrink again and must take the relaunch path.
		Shrink:        shrinkPolicy(dir, 3),
		WrapTransport: func(tr comm.Transport) comm.Transport { return inj2.Wrap(inj1.Wrap(tr)) },
	}
	redistribute := opts.Shrink.Redistribute
	opts.Shrink.Redistribute = func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error) {
		cut, err := redistribute(lost, oldSize, newEpoch)
		if err == nil {
			err = os.WriteFile(shrunkMarker, nil, 0o644)
		}
		return cut, err
	}
	outs, err := runShrinkSort(t, topo, opts, dir, in, opt)
	if err != nil {
		t.Fatalf("cascade recovery failed: %v", err)
	}
	if len(outs) != topo.Size() {
		t.Fatalf("finished on %d ranks, want the relaunched full world of %d", len(outs), topo.Size())
	}
	checkSorted(t, in, outs, false)

	if k1, k2 := inj1.Stats().Kills, inj2.Stats().Kills; k1 != 1 || k2 != 1 {
		t.Fatalf("kills fired %d and %d times, want 1 and 1", k1, k2)
	}
	if len(recorded(t, rec, "supervisor.shrink")) != 1 || len(recorded(t, rec, "supervisor.restart")) != 1 {
		t.Fatalf("want one shrink then one relaunch: %v", supervisorTrail(t, rec))
	}
	if ok := okEpochs(t, rec); len(ok) != 1 || ok[0].Detail["degraded"] != false {
		t.Fatalf("final epoch should be the relaunched full world: %v", ok)
	}
	if used := gauge.Used(); used != 0 {
		t.Fatalf("memory gauge holds %d bytes after the cascade", used)
	}
}

// okEpochs returns the supervisor's epoch spans that ended in success.
func okEpochs(t *testing.T, rec *trace.Ring) []trace.SpanRecord {
	return slices.DeleteFunc(spansNamed(t, rec, "epoch"), func(s trace.SpanRecord) bool { return s.Detail["outcome"] != "ok" })
}

// supervisorTrail lists the supervisor's events in order: what a failed
// assertion on the recovery sequence prints.
func supervisorTrail(t *testing.T, rec *trace.Ring) []string {
	var kinds []string
	for _, e := range recorded(t, rec, "") {
		if strings.HasPrefix(e.Kind, "supervisor.") {
			kinds = append(kinds, e.Kind)
		}
	}
	return kinds
}
