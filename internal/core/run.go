package core

import (
	"fmt"

	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/trace"
)

// run is one Sort, SortFileShard or Baseline call: what is constant for the
// call, and the state its phases hand each other — exactly what a
// checkpoint manifest records, so a resume fills the state from disk and
// enters the phase list further down. Owned by the calling rank's
// goroutine.
type run[T any] struct {
	c       *comm.Comm // the caller's communicator
	rank    int        // c.Rank(): what events and spans are attributed to, whatever wc becomes
	cd      codec.Codec[T]
	cmp     func(a, b T) int
	recSize int64
	opt     Options // Span is rebound to the root span's scope by start
	tm      *metrics.PhaseTimer
	tr      trace.Tracer
	acct    memAcct // every byte the call reserves; close returns what is left
	ck      *Checkpointing
	root    *trace.Span

	work     []T        // the rank's sorted working set, then its output block
	wc       *comm.Comm // what the remaining phases run on: c, the node leaders after τm, a baseline level's group
	merged   bool       // τm rewrote wc
	follower bool       // this rank's records were merged onto its node leader
	bounds   []int      // send boundaries of work, len wc.Size()+1, once partitioned
	pg       []T        // global pivots, between selection and partition
	scratch  []T        // the radix pass's scratch, until the exchange takes it as its receive slab
	// localSnap: this epoch's local-sort snapshot is work byte for byte,
	// so later boundaries alias it instead of re-encoding.
	localSnap bool
	// exit is the root span's end reason, set by whatever ended the sort:
	// follower, single, empty, resume, completed, spilled.
	exit string
}

// newRun validates the options and sets up the call's timer, tracer and
// memory ledger; nil observers become throwaways so nothing downstream
// branches on them.
func newRun[T any](c *comm.Comm, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (*run[T], error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	r := &run[T]{
		c: c, wc: c, rank: c.Rank(), cd: cd, cmp: cmp, recSize: int64(cd.Size()), opt: opt,
		tm: opt.Timer, tr: opt.Trace, acct: memAcct{g: opt.Mem}, ck: opt.Checkpoint,
	}
	if r.tm == nil {
		r.tm = metrics.NewPhaseTimer()
	}
	if r.tr == nil {
		r.tr = trace.Nop{}
	}
	return r, nil
}

// start opens a sort's books: the clock and the root span. Phase spans
// become the root's children through opt.Span, which is rebound to its
// scope so every helper parents correctly. With tracing off the span is
// nil and all span calls are free no-ops.
func (r *run[T]) start(detail map[string]any) {
	r.tm.Start(metrics.PhaseOther)
	r.root = trace.StartSpan(r.tr, r.rank, r.opt.Span, "sort", detail)
	r.opt.Span = r.root.Scope()
}

// close is deferred by the sorts: whatever the ledger still holds goes
// back to the (shared, long-lived) gauge on *any* exit — success,
// follower dropout, error, even a panic unwinding — and unless done got
// there first the root span closes as failed rather than dangling.
func (r *run[T]) close() {
	r.acct.releaseAll()
	r.root.End(spanFailed)
	r.tm.Stop()
}

// done closes the root span with the record count and exit reason every
// successful exit must report.
func (r *run[T]) done(records any) {
	r.root.End(map[string]any{"records": records, "reason": r.exit})
}

// phase is one row of a sort's phase list; runPhases is the only code
// that interprets it.
type phase struct {
	name  string         // span name; "" for a phase whose body opens its own spans
	clock metrics.Phase  // what the body's wall time is charged to
	begin map[string]any // span begin detail
	// body works on the run's state and returns the span's end detail.
	// It ends the sort early by setting exit.
	body func() (map[string]any, error)
	skew string           // load observation taken over wc after the body; "" for none
	cut  checkpoint.Phase // boundary snapshot committed after the body; PhaseNone for none
}

// runPhases steps through phases until one ends the sort. Each step is
// clock, span, body, span end — with the body's detail on success, as
// failed on every error exit — then the phase's boundary snapshot and
// skew observation, if it has them.
func (r *run[T]) runPhases(phases []phase) error {
	for _, ph := range phases {
		if r.exit != "" {
			break
		}
		r.tm.Start(ph.clock)
		var sp *trace.Span
		if ph.name != "" {
			sp = trace.StartSpan(r.tr, r.rank, r.opt.Span, ph.name, ph.begin)
		}
		detail, err := ph.body()
		if err != nil {
			sp.End(spanFailed)
			return err
		}
		sp.End(detail)
		if r.exit != "" {
			break
		}
		if ph.cut != checkpoint.PhaseNone {
			r.commit(ph.cut)
		}
		if ph.skew != "" {
			if err := r.observeSkew(ph.skew, int64(len(r.work))); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPivots accepts a global pivot selection for wc: p-1 pivots, or
// none at all — the whole dataset is empty, which every rank sees alike
// because the selection is collective, and which ends the sort.
func (r *run[T]) checkPivots(pg []T) error {
	if p := r.wc.Size(); len(pg) == 0 {
		r.exit = "empty"
	} else if len(pg) != p-1 {
		return fmt.Errorf("core: selected %d global pivots for %d processes", len(pg), p)
	}
	return nil
}

// setBounds adopts a partition of work that comes from outside the sort
// — a driver, a manifest — once it checks out as one over wc.
func (r *run[T]) setBounds(bounds []int) error {
	if len(bounds) != r.wc.Size()+1 {
		return fmt.Errorf("core: %d partition bounds for %d processes", len(bounds), r.wc.Size())
	}
	r.bounds = bounds
	return partition.Validate(bounds, len(r.work))
}

// dropOut ends the sort for a rank whose records live on its node
// leader: it holds no output and takes no further part.
func (r *run[T]) dropOut() {
	r.work, r.bounds, r.localSnap = []T{}, nil, false
	r.merged, r.follower, r.exit = true, true, "follower"
}

// commit snapshots boundary ph under the current epoch from the run's
// state; a no-op with checkpointing off. Records that are still the
// local-sort snapshot's, byte for byte, are not written again: the
// background writer hard-links them (commits run in FIFO order, so the
// source is safe to reference). Otherwise they are encoded here — later
// phases may mutate or release the slice — and the disk commit is
// enqueued; failures surface from Wait, not from the phase.
func (r *run[T]) commit(ph checkpoint.Phase) {
	ck := r.ck
	if !ck.enabled() {
		return
	}
	m := checkpoint.Manifest{Epoch: ck.Epoch, Phase: ph, Rank: r.rank, Merged: r.merged, Leader: !r.follower}
	if ph == checkpoint.PhasePartition {
		for _, b := range r.bounds {
			m.Bounds = append(m.Bounds, int64(b))
		}
	}
	store := ck.Store
	// Every save is one span. It covers what the sort actually pays
	// for: the in-place encode, plus — in Sync mode — the inline disk
	// commit. Async commits run on the background writer, off the
	// critical path, so they stay outside the span (sync=false marks
	// those). An aliased save encodes nothing.
	detail := map[string]any{"phase": ph.String(), "op": "save", "sync": ck.Sync, "epoch": ck.Epoch}
	alias := r.localSnap && ph != checkpoint.PhaseLocalSort
	if alias {
		detail["alias"] = checkpoint.PhaseLocalSort.String()
	}
	csp := trace.StartSpan(r.tr, r.rank, r.opt.Span, "checkpoint", detail)
	if alias {
		ck.enqueue(ph, func() error { return checkpoint.SaveAlias(store, m, checkpoint.PhaseLocalSort) })
		csp.End(nil)
		return
	}
	size := r.cd.Size()
	payload := codec.EncodeSlice(r.cd, make([]byte, 0, len(r.work)*size), r.work)
	n := int64(len(r.work))
	ck.enqueue(ph, func() error { return checkpoint.SaveBytes(store, m, payload, n, size) })
	csp.End(map[string]any{"records": len(r.work)})
	r.localSnap = ph == checkpoint.PhaseLocalSort
}

// restore is the one resume rule. It loads this rank's snapshot of the
// configured cut (count and checksum verified), reserves what it holds
// beyond the caller's input — a degraded resume hands each survivor its
// own records plus a share of the dead ranks', more than the caller
// budgeted for — fills the run's state from the manifest, replays the
// communicator rewrite and follower drop-out of a τm merge, and
// re-commits the snapshot under the current epoch, so every epoch is
// self-contained for any later resume. It returns the cut's phase —
// the list is entered after the phase that commits it — or PhaseNone
// for a cold start.
func (r *run[T]) restore() (checkpoint.Phase, error) {
	ck := r.ck
	if !ck.enabled() || ck.Resume.Phase == checkpoint.PhaseNone {
		return checkpoint.PhaseNone, nil
	}
	ph, epoch := ck.Resume.Phase, ck.Resume.Epoch
	csp := trace.StartSpan(r.tr, r.rank, r.opt.Span, "checkpoint", map[string]any{
		"phase": ph.String(), "op": "load", "from_epoch": epoch, "epoch": ck.Epoch,
	})
	m, recs, err := checkpoint.Load[T](ck.Store, epoch, ph, r.rank, r.cd)
	if err != nil {
		csp.End(map[string]any{"error": err.Error()})
		return ph, fmt.Errorf("core: resume from %s@e%d: %w", ph, epoch, err)
	}
	csp.End(map[string]any{"records": len(recs)})
	if extra := int64(len(recs)-len(r.work)) * r.recSize; extra > 0 {
		if err := r.acct.reserve(extra); err != nil {
			return ph, fmt.Errorf("core: resume buffer: %w", err)
		}
	}
	r.work, r.merged, r.follower = recs, m.Merged, !m.Leader
	if ph == checkpoint.PhaseFinal {
		// This rank's block of the output is what was loaded: nothing
		// left to compute, and Sort re-commits it on the way out.
		r.exit = "resume"
		return ph, nil
	}
	if m.Merged {
		// SplitByNode is communication-free and every rank takes this
		// branch (Merged is global), so the split sequence stays aligned
		// across the job.
		_, leaders, err := r.c.SplitByNode()
		if err != nil {
			return ph, fmt.Errorf("core: resume node split: %w", err)
		}
		if r.follower {
			r.dropOut()
			return ph, nil
		}
		r.wc = leaders
	}
	if ph == checkpoint.PhasePartition {
		bounds := make([]int, len(m.Bounds))
		for i, b := range m.Bounds {
			bounds[i] = int(b)
		}
		if err := r.setBounds(bounds); err != nil {
			return ph, fmt.Errorf("core: resume: %w", err)
		}
	}
	r.commit(ph)
	if ph == checkpoint.PhaseLocalSort {
		// The skipped phase's input-side observation. Collective: every
		// rank resumes at the same cut, on the unmerged communicator.
		return ph, r.observeSkew(metrics.SkewLocalSort, int64(len(r.work)))
	}
	return ph, nil
}
