package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/faultnet"
	"sdssort/internal/trace"
)

// TestDecideTable drives the one recovery decision with scripted
// errors, oracles and Redistribute hooks, and pins for each row the
// plan it returns, the supervisor.* events it emits (and their order)
// and whether it may touch the checkpoint store at all.
func TestDecideTable(t *testing.T) {
	lost2 := fmt.Errorf("rank 0: %w", &comm.ErrPeerLost{Rank: 2, Err: errors.New("receive timed out")})
	joined := errors.Join(lost2, fmt.Errorf("rank 3: %w", comm.ErrClosed), &PanicError{Rank: 1, Value: "boom"})
	cut := checkpoint.Cut{Epoch: 1, Phase: checkpoint.PhaseLocalSort}
	tornStore := errors.New("snapshot torn by a second loss")
	oracle := func(dead ...int) func(int) bool {
		return func(r int) bool { return !slices.Contains(dead, r) }
	}
	redistribute := func(c checkpoint.Cut, err error) func([]int, int, int) (checkpoint.Cut, error) {
		return func([]int, int, int) (checkpoint.Cut, error) { return c, err }
	}
	for _, tc := range []struct {
		name        string
		err         error
		epoch       int
		alive       func(int) bool
		off         bool // shrink disabled
		minRanks    int
		maxRestarts int
		hook        func([]int, int, int) (checkpoint.Cut, error)

		action    Action
		lost      []int // what the hook (and the Resume plan) must see
		survivors []int
		events    []string
		planErr   string // substring of Plan.Err, "" for nil
	}{
		{name: "shrink on the rank the errors name", err: lost2, maxRestarts: 1, hook: redistribute(cut, nil),
			action: Resume, lost: []int{2}, survivors: []int{0, 1, 3}, events: []string{"supervisor.shrink"}},
		{name: "joined error: lost peer and panicked rank both shed", err: joined, maxRestarts: 1, hook: redistribute(cut, nil),
			action: Resume, lost: []int{1, 2}, survivors: []int{0, 3}, events: []string{"supervisor.shrink"}},
		{name: "slow but alive: named by the error, answers the oracle, not shed", err: lost2, maxRestarts: 1, alive: oracle(),
			action: Relaunch, events: []string{"supervisor.restart"}, planErr: "no lost ranks"},
		{name: "the oracle outranks the error: sheds who it says is dead", err: lost2, maxRestarts: 1, alive: oracle(3), hook: redistribute(cut, nil),
			action: Resume, lost: []int{3}, survivors: []int{0, 1, 2}, events: []string{"supervisor.shrink"}},
		{name: "survivors below MinRanks", err: lost2, maxRestarts: 1, alive: oracle(1, 2), minRanks: 3,
			action: Relaunch, events: []string{"supervisor.restart"}, planErr: "2 survivors"},
		{name: "MinRanks floors at 2", err: lost2, maxRestarts: 1, alive: oracle(0, 1, 2), minRanks: 1,
			action: Relaunch, events: []string{"supervisor.restart"}, planErr: "1 survivors"},
		{name: "unidentifiable loss: the error names nobody in this world", maxRestarts: 1,
			err:    &comm.ErrPeerLost{Rank: 9},
			action: Relaunch, events: []string{"supervisor.restart"}, planErr: "no lost ranks"},
		{name: "Redistribute fails", err: lost2, maxRestarts: 1, hook: redistribute(checkpoint.Cut{}, tornStore),
			action: Relaunch, lost: []int{2}, events: []string{"supervisor.shrink_fallback", "supervisor.restart"}, planErr: "torn"},
		{name: "no consistent cut", err: lost2, maxRestarts: 1, hook: redistribute(checkpoint.Cut{}, nil),
			action: Relaunch, lost: []int{2}, events: []string{"supervisor.shrink_fallback", "supervisor.restart"}, planErr: "no consistent cut"},
		{name: "shrink disabled", err: lost2, maxRestarts: 1, off: true,
			action: Relaunch, events: []string{"supervisor.restart"}},
		{name: "budget exhausted", err: lost2, epoch: 2, maxRestarts: 2,
			action: GiveUp, events: []string{"supervisor.giveup"}, planErr: "restart budget 2 exhausted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRing(ringCap)
			var sawLost []int
			hook := func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error) {
				if tc.hook == nil {
					t.Errorf("Redistribute called (lost %v): this row must decide without touching the store", lost)
					return checkpoint.Cut{}, errors.New("unexpected")
				}
				if oldSize != 4 || newEpoch != tc.epoch+1 {
					t.Errorf("Redistribute(oldSize %d, newEpoch %d), want (4, %d)", oldSize, newEpoch, tc.epoch+1)
				}
				sawLost = lost
				return tc.hook(lost, oldSize, newEpoch)
			}
			plan := Decide(Failure{Err: tc.err, Epoch: tc.epoch, Size: 4, Alive: tc.alive}, Options{
				MaxRestarts: tc.maxRestarts, Trace: rec,
				Shrink: ShrinkPolicy{Enabled: !tc.off, MinRanks: tc.minRanks, Redistribute: hook},
			})

			if plan.Action != tc.action {
				t.Fatalf("action %d, want %d (plan %+v)", plan.Action, tc.action, plan)
			}
			if !slices.Equal(sawLost, tc.lost) {
				t.Errorf("Redistribute saw lost %v, want %v", sawLost, tc.lost)
			}
			var kinds []string
			for _, e := range recorded(t, rec) {
				if e.Rank != -1 {
					t.Errorf("%s emitted at rank %d, want -1", e.Kind, e.Rank)
				}
				kinds = append(kinds, e.Kind)
			}
			if !slices.Equal(kinds, tc.events) {
				t.Errorf("events %v, want %v", kinds, tc.events)
			}
			switch {
			case tc.planErr == "" && plan.Err != nil:
				t.Errorf("Plan.Err = %v, want nil", plan.Err)
			case tc.planErr != "" && (plan.Err == nil || !strings.Contains(plan.Err.Error(), tc.planErr)):
				t.Errorf("Plan.Err = %v, want it to mention %q", plan.Err, tc.planErr)
			}

			got := tallyOf(recorded(t, rec))
			switch tc.action {
			case Resume:
				want := Epoch{N: tc.epoch + 1, Degraded: true, Resume: cut, Lost: tc.lost}
				if plan.Epoch.N != want.N || !plan.Epoch.Degraded || plan.Epoch.Resume != cut || !slices.Equal(plan.Epoch.Lost, tc.lost) {
					t.Errorf("next epoch %+v, want %+v", plan.Epoch, want)
				}
				if !slices.Equal(plan.Survivors, tc.survivors) {
					t.Errorf("survivors %v, want %v", plan.Survivors, tc.survivors)
				}
				if got.shrinks != 1 || got.shed != len(tc.lost) || got.restarts != 0 {
					t.Errorf("recovery tally %+v", got)
				}
			case Relaunch:
				if plan.Epoch.N != tc.epoch+1 || plan.Epoch.Degraded || plan.Survivors != nil {
					t.Errorf("relaunch plan %+v, want a plain full-world epoch %d", plan, tc.epoch+1)
				}
				if got.restarts != 1 || got.shrinks != 0 {
					t.Errorf("recovery tally %+v", got)
				}
			case GiveUp:
				if _, ok := comm.PeerLost(plan.Err); !ok {
					t.Errorf("budget-exhausted error no longer matches comm.ErrPeerLost: %v", plan.Err)
				}
				if got.restarts != 0 || got.shrinks != 0 {
					t.Errorf("recovery tally %+v", got)
				}
			}
		})
	}
}

// shrinkWorld is a 4-rank in-process world under the fault harness with
// a committed localsort cut and a liveness responder on every rank —
// the state sdsnode -allow-shrink is in when a peer dies. Rank 2's
// transport is killed on its first operation (its responder's receive),
// so it never answers a probe.
type shrinkWorld struct {
	dir  string
	trs  []comm.Transport
	recs int // records in the committed cut, all ranks
}

func newShrinkWorld(t *testing.T) *shrinkWorld {
	t.Helper()
	const size = 4
	w := &shrinkWorld{dir: t.TempDir()}
	store, err := checkpoint.NewStore(w.dir, size)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < size; r++ {
		run := make([]float64, 50+10*r)
		for i := range run {
			run[i] = float64(i*size + r)
		}
		w.recs += len(run)
		m := checkpoint.Manifest{Phase: checkpoint.PhaseLocalSort, Rank: r, Leader: true}
		if err := checkpoint.Save(store, m, codec.Float64{}, run); err != nil {
			t.Fatal(err)
		}
	}
	world, err := comm.NewWorld(size, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultnet.New(faultnet.Plan{KillRank: 2, KillAfterOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stops []func()
	for r := 0; r < size; r++ {
		tr := inj.Wrap(world.Transport(r))
		w.trs = append(w.trs, tr)
		stops = append(stops, StartProber(tr, "world"))
	}
	t.Cleanup(func() {
		for _, stop := range stops {
			stop()
		}
		world.Close()
	})
	return w
}

// survivor is what sdsnode's shrinkAndResume does on one rank, minus
// the flags: hand Decide the oracle, with ReformAndAgree behind the
// Redistribute hook.
func (w *shrinkWorld) survivor(rank int, timeout time.Duration, alive func(int) bool, rec trace.Tracer) (Plan, *comm.Comm, *checkpoint.Store) {
	tr := w.trs[rank]
	var c *comm.Comm
	var store *checkpoint.Store
	plan := Decide(Failure{
		Err: &comm.ErrPeerLost{Rank: 2}, Size: tr.Size(), Alive: alive,
	}, Options{MaxRestarts: 1, Trace: rec, Shrink: ShrinkPolicy{Enabled: true,
		Redistribute: func(lost []int, oldSize, newEpoch int) (cut checkpoint.Cut, err error) {
			c, store, cut, err = ReformAndAgree(tr, w.dir, lost, newEpoch, timeout,
				func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error) {
					return checkpoint.RedistributeLatest(w.dir, oldSize, lost, newEpoch, codec.Float64{}, cmp.Compare[float64])
				})
			return cut, err
		}}})
	return plan, c, store
}

// TestReformAndAgreeInProcess runs the function sdsnode calls behind
// its shrink decision over an in-process world with a fault-killed
// rank: every survivor probes, re-forms, adopts the redistributed cut
// and can talk on the shrunken world.
func TestReformAndAgreeInProcess(t *testing.T) {
	w := newShrinkWorld(t)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for _, r := range []int{0, 1, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = func() error {
				alive := Probe(w.trs[r], "world", 200*time.Millisecond)
				for q := 0; q < 4; q++ {
					if alive(q) != (q != 2) {
						return fmt.Errorf("probe says alive(%d) = %v", q, alive(q))
					}
				}
				plan, c, store := w.survivor(r, 5*time.Second, alive, nil)
				if plan.Action != Resume {
					return fmt.Errorf("plan %+v, want a resume", plan)
				}
				if !slices.Equal(plan.Survivors, []int{0, 1, 3}) || !slices.Equal(plan.Epoch.Lost, []int{2}) {
					return fmt.Errorf("survivors %v lost %v", plan.Survivors, plan.Epoch.Lost)
				}
				if want := (checkpoint.Cut{Epoch: 1, Phase: checkpoint.PhaseLocalSort}); plan.Epoch.Resume != want {
					return fmt.Errorf("agreed cut %+v, want %+v", plan.Epoch.Resume, want)
				}
				if c.Size() != 3 || c.Rank() != slices.Index(plan.Survivors, r) {
					return fmt.Errorf("shrunken world: rank %d of %d", c.Rank(), c.Size())
				}
				// The shrunken world is live, and its store holds every
				// record of the old cut — the dead rank's included.
				_, mine, err := checkpoint.Load(store, 1, checkpoint.PhaseLocalSort, c.Rank(), codec.Float64{})
				if err != nil {
					return err
				}
				if !slices.IsSorted(mine) {
					return errors.New("redistributed run is not sorted")
				}
				total, err := c.AllreduceInt64(int64(len(mine)), func(a, b int64) int64 { return a + b })
				if err != nil {
					return err
				}
				if total != int64(w.recs) {
					return fmt.Errorf("shrunken cut holds %d records, want %d", total, w.recs)
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestReformDisagreementFallsBack hands one survivor a different death
// list. The two camps sign differently-membered worlds, so neither can
// complete the other's barrier: every survivor must time out into the
// relaunch fallback — a shrink_fallback event, then restart — and none
// may come back with a world.
func TestReformDisagreementFallsBack(t *testing.T) {
	w := newShrinkWorld(t)
	views := map[int][]int{0: {2}, 1: {2}, 3: {1, 2}} // rank 3 thinks 1 died too
	var wg sync.WaitGroup
	for r, dead := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.NewRing(ringCap)
			alive := func(q int) bool { return !slices.Contains(dead, q) }
			plan, c, _ := w.survivor(r, 300*time.Millisecond, alive, rec)
			if plan.Action != Relaunch || c != nil {
				t.Errorf("rank %d: plan %+v (world %v), want the relaunch fallback", r, plan, c != nil)
				return
			}
			if plan.Err == nil || !strings.Contains(plan.Err.Error(), "disagree on membership") {
				t.Errorf("rank %d: fallback reason %v", r, plan.Err)
			}
			var kinds []string
			for _, e := range recorded(t, rec) {
				kinds = append(kinds, e.Kind)
			}
			if want := []string{"supervisor.shrink_fallback", "supervisor.restart"}; !slices.Equal(kinds, want) {
				t.Errorf("rank %d: events %v, want %v", r, kinds, want)
			}
		}()
	}
	wg.Wait()
}
