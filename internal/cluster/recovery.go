package cluster

// The recovery path — who died, who survives, re-form, redistribute,
// resume or relaunch — shared by the in-process supervisor
// (RunSupervised) and the per-process one (sdsnode -allow-shrink), which
// differ only in their liveness oracle and in what "relaunch" means.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sdssort/internal/checkpoint"
	"sdssort/internal/comm"
)

// WorldName names one epoch's world, so frames from a dead epoch are
// undeliverable in a live one. Degraded worlds carry their size too: a
// shrunken world renumbers ranks, so its frames must not reach even a
// same-epoch full world.
func WorldName(ep int, degraded bool, size int) string {
	if degraded {
		return fmt.Sprintf("world@e%ds%d", ep, size)
	}
	if ep == 0 {
		return "world"
	}
	return fmt.Sprintf("world@e%d", ep)
}

// Failure describes a failed epoch to Decide.
type Failure struct {
	// Err is the epoch's error — one rank's, or every rank's joined.
	Err error
	// Epoch and Size are the failed epoch's number and world size.
	Epoch, Size int
	// Alive is the liveness oracle: a rank is shed exactly when Alive
	// denies it, so a peer the errors name but that still answers is
	// slow, not lost. Nil reads the oracle off Err — a rank is dead when
	// an ErrPeerLost or PanicError names it — which is right in-process,
	// where the joined error holds every rank's verdict; a lone process
	// sees only its own error and must ask (Probe).
	Alive func(rank int) bool
}

// blame lists the ranks a failed epoch's (possibly joined) error names:
// one entry per ErrPeerLost member and one per PanicError, duplicates
// kept so callers can count verdicts. Survivors unblocked by a fabric
// teardown report plain closed-comm errors and name nobody.
func blame(err error) (peers, panics []int) {
	for _, e := range flatten(err) {
		if r, ok := comm.PeerLost(e); ok {
			peers = append(peers, r)
		}
		var pe *PanicError
		if errors.As(e, &pe) {
			panics = append(panics, pe.Rank)
		}
	}
	return peers, panics
}

// lost extracts the failed world's dead ranks, ascending.
func (f Failure) lost() []int {
	alive := f.Alive
	if alive == nil {
		peers, panics := blame(f.Err)
		alive = func(r int) bool { return !slices.Contains(peers, r) && !slices.Contains(panics, r) }
	}
	var out []int
	for r := 0; r < f.Size; r++ {
		if !alive(r) {
			out = append(out, r)
		}
	}
	return out
}

// Action is what a supervisor does after a recoverable failure.
type Action int

const (
	// Relaunch starts the next epoch on the full-size world, which
	// resumes from the old full-size cut.
	Relaunch Action = iota
	// Resume runs the next epoch degraded, on Plan.Survivors, from the
	// redistributed cut in Plan.Epoch.Resume.
	Resume
	// GiveUp ends the run with Plan.Err: the restart budget is spent.
	GiveUp
)

// Plan is Decide's verdict.
type Plan struct {
	Action Action
	// Epoch describes the next attempt (Relaunch and Resume).
	Epoch Epoch
	// Survivors holds the failed world's surviving ranks, ascending;
	// index = rank in the shrunken world (Resume only).
	Survivors []int
	// Err is the budget-wrapped failure for GiveUp — it still matches
	// comm.PeerLost / errors.As — and, for a Relaunch, why a shrink that
	// was enabled could not proceed.
	Err error
}

// Decide is the one recovery decision. Given a recoverable failure it
// charges the restart budget (opts.MaxRestarts epochs after the first),
// then prefers healing in place: with opts.Shrink enabled, the lost
// ranks identified and at least MinRanks survivors, it calls
// Shrink.Redistribute to re-cut the checkpoints and plans a degraded
// epoch. A shrink that cannot proceed — too few survivors, nobody
// identifiably dead, Redistribute failing (a cascading loss
// mid-redistribution lands there) or finding no cut — falls back to a
// full relaunch. Every supervisor.* decision event is emitted here, at
// rank -1 on opts.Trace.
func Decide(f Failure, opts Options) Plan {
	tr := opts.tracer()
	if f.Epoch >= opts.MaxRestarts {
		tr.Emit(-1, "supervisor.giveup", map[string]any{
			"epoch": f.Epoch, "max_restarts": opts.MaxRestarts, "error": f.Err.Error(),
		})
		return Plan{Action: GiveUp, Err: fmt.Errorf("cluster: restart budget %d exhausted: %w", opts.MaxRestarts, f.Err)}
	}
	next := f.Epoch + 1
	var why error
	if p := opts.Shrink; p.Enabled && p.Redistribute != nil {
		lost := f.lost()
		survivors, err := checkpoint.Survivors(f.Size, lost)
		if need := max(p.MinRanks, 2); err == nil && len(survivors) < need {
			err = fmt.Errorf("cluster: %d survivors, a shrunken world needs %d", len(survivors), need)
		}
		if err == nil {
			var cut checkpoint.Cut
			cut, err = p.Redistribute(lost, f.Size, next)
			if err == nil && cut.Phase == checkpoint.PhaseNone {
				err = errors.New("no consistent cut")
			}
			if err == nil {
				tr.Emit(-1, "supervisor.shrink", map[string]any{
					"epoch": next, "lost": lost, "world": len(survivors),
					"resume_epoch": cut.Epoch, "resume_phase": cut.Phase.String(),
				})
				return Plan{
					Action:    Resume,
					Epoch:     Epoch{N: next, Degraded: true, Resume: cut, Lost: lost},
					Survivors: survivors,
				}
			}
			tr.Emit(-1, "supervisor.shrink_fallback", map[string]any{
				"epoch": next, "lost": lost, "reason": err.Error(),
			})
		}
		why = err
	}
	tr.Emit(-1, "supervisor.restart", map[string]any{
		"epoch": next, "error": f.Err.Error(),
	})
	return Plan{Action: Relaunch, Epoch: Epoch{N: next}, Err: why}
}

// Liveness probing, for supervisors that see one rank's error only:
// every rank parks a responder from process start (StartProber), and
// after a failure each survivor pings every other rank (Probe), taking a
// send failure or reply timeout for death. Survivors that disagree on
// the death list build differently-signed worlds in ReformAndAgree, so a
// wrong guess costs a relaunch, never a wrong answer.
const (
	tagProbeReq = 21
	tagProbeRep = 22
)

// StartProber parks one goroutine per peer answering pings on world's
// probe channel, whatever the rank is computing. Call it before the
// sort — survivors probe each other while some are still stuck inside
// the dying collective. stop retires the responders as their pending
// receives return (at the latest when the transport closes).
func StartProber(tr comm.Transport, world string) (stop func()) {
	c := comm.Attach(tr, world+"/probe")
	done := make(chan struct{})
	for p := 0; p < tr.Size(); p++ {
		if p == tr.Rank() {
			continue
		}
		go func(p int) {
			for {
				if _, err := c.Recv(p, tagProbeReq); err != nil {
					// An idle probe channel trips the transport's receive
					// failure detector long before any probe arrives; that
					// is routine, not a reason to stop answering. Re-arm
					// with a pause so a persistent error cannot spin.
					select {
					case <-done:
						return
					case <-time.After(50 * time.Millisecond):
					}
					continue
				}
				if c.Send(p, tagProbeRep, nil) != nil {
					return
				}
			}
		}(p)
	}
	return func() { close(done) }
}

// bounded runs op and abandons it after timeout, leaving its goroutine
// parked — callers are about to drop the peer or the world op waits on.
func bounded(timeout time.Duration, op func() error) error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("timed out after %v", timeout)
	}
}

// Probe pings every other rank of world in parallel, each bounded by
// timeout, and returns the verdicts as a liveness oracle for Failure.
func Probe(tr comm.Transport, world string, timeout time.Duration) func(rank int) bool {
	c := comm.Attach(tr, world+"/probe")
	alive := make([]bool, tr.Size())
	alive[tr.Rank()] = true
	var wg sync.WaitGroup
	for p := range alive {
		if p == tr.Rank() {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			alive[p] = c.Send(p, tagProbeReq, nil) == nil && bounded(timeout, func() error {
				_, err := c.Recv(p, tagProbeRep)
				return err
			}) == nil
		}(p)
	}
	wg.Wait()
	return func(rank int) bool { return alive[rank] }
}

// ReformAndAgree is one survivor's half of a distributed shrink, shaped
// to sit behind ShrinkPolicy.Redistribute. Every survivor of tr's world
// calls it with its own view of the lost ranks. Those that agree re-form
// a fenced world over the live transport — connections between
// survivors stay up, only the message context changes — named
// WorldName(newEpoch, true, size) and spanning exactly the survivors,
// renumbered in rank order. Because the member list is folded into the
// message context (comm.AttachGroup), survivors that disagree on who
// died can never reach each other: the disagreement, or a listed
// survivor that is actually dead, surfaces as the first barrier timing
// out (bounded by timeout alone: the rendezvous outwaits the transport's
// receive failure detector), never as a hang or a wrong-world delivery.
//
// The new rank 0 then rebuilds the checkpoint cut under dir with
// redistribute — the single-process hook, e.g.
// checkpoint.RedistributeLatest — and everyone adopts the result through
// the usual cut agreement. Rank 0's redistribute error is held back
// until after it: finding no cut is the one way the whole world gives up
// together. Returns the shrunken world, its store and the agreed cut.
func ReformAndAgree(tr comm.Transport, dir string, lost []int, newEpoch int, timeout time.Duration,
	redistribute func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error),
) (*comm.Comm, *checkpoint.Store, checkpoint.Cut, error) {
	survivors, err := checkpoint.Survivors(tr.Size(), lost)
	if err != nil {
		return nil, nil, checkpoint.Cut{}, err
	}
	name := WorldName(newEpoch, true, len(survivors))
	c, err := comm.AttachGroup(tr, name, survivors)
	if err != nil {
		return nil, nil, checkpoint.Cut{}, fmt.Errorf("cluster: reform: %w", err)
	}
	// Rendezvous on a context of its own whose receives outwait the
	// transport's failure detector: survivors leave the dying sort up
	// to one -recv-timeout apart, and timeout — not the detector —
	// bounds how long the early ones wait for the late ones.
	meet, _ := comm.AttachGroup(comm.WithRecvDeadline(tr, time.Now().Add(timeout)), name+"/reform", survivors)
	if err := bounded(timeout, meet.Barrier); err != nil {
		return nil, nil, checkpoint.Cut{}, fmt.Errorf("cluster: reform barrier of %q over %v: survivors disagree on membership, or a listed survivor is dead: %w", name, survivors, err)
	}
	store, err := checkpoint.NewStore(dir, c.Size())
	if err != nil {
		return nil, nil, checkpoint.Cut{}, err
	}
	var rerr error
	if c.Rank() == 0 {
		_, rerr = redistribute(lost, tr.Size(), newEpoch)
	}
	cut, ok, err := checkpoint.AgreeCut(c, store)
	if err == nil && !ok {
		err = errors.Join(errors.New("cluster: no resumable cut for the shrunken world"), rerr)
	}
	if err != nil {
		return nil, nil, checkpoint.Cut{}, err
	}
	return c, store, cut, nil
}
