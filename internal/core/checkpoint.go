package core

import (
	"fmt"
	"sync"

	"sdssort/internal/checkpoint"
)

// Checkpointing wires Sort to a checkpoint.Store: each rank snapshots
// its data after the local-sort, partition and exchange phases, and a
// re-run can resume from a previously committed cut instead of
// recomputing. A nil Checkpointing (or nil Store) disables the whole
// feature at zero cost.
//
// Snapshots commit asynchronously: at each phase boundary the records
// are encoded in place (cheap — memory bandwidth) and the disk commit
// runs on a background writer, off the sort's critical path. Each
// pending save holds one encoded copy of its records until it lands.
// Durability is therefore deferred: call Wait before treating the job
// as checkpointed (cmd/sdsnode does, before its final barrier). A
// crash before a commit simply leaves the previous cut as the newest
// consistent one.
//
// Checkpointing keeps no counters. What a failure cost — the epochs
// that ran, how each ended, the ranks blamed, whether the world shrank
// or relaunched — is in the supervisor's trace: cluster.RunSupervised's
// epoch span and supervisor.* events.
type Checkpointing struct {
	// Store receives the snapshots. All ranks of the job must point at
	// the same directory (in-process: share the Store; distributed: a
	// shared filesystem, as on the paper's Cray testbed).
	Store *checkpoint.Store
	// Epoch is the recovery epoch this attempt writes its snapshots
	// under — cluster.RunSupervised passes its Epoch.N through here.
	Epoch int
	// Resume names the cut to restart from; the zero value (PhaseNone)
	// means a cold start. Every rank must agree on the cut — use
	// checkpoint.AgreeCut or Store.LatestConsistent before launching.
	Resume checkpoint.Cut
	// Sync commits each snapshot at its phase boundary instead of on
	// the background writer: the sort pays the disk latency inline, in
	// exchange for the guarantee that a committed manifest exists the
	// moment the phase ends — durable-at-boundary semantics, and a
	// deterministic anchor for fault-injection triggers keyed on
	// manifest files.
	Sync bool

	mu       sync.Mutex
	queue    []func()
	draining bool
	wg       sync.WaitGroup
	err      error // first async commit failure
}

func (ck *Checkpointing) enabled() bool { return ck != nil && ck.Store != nil }

// enqueue hands the disk commit of phase ph's snapshot to the
// background writer. Commits run strictly in enqueue order — aliased
// snapshots (hard links to an earlier phase's data) depend on their
// source having committed first — and one at a time, so a shared
// Checkpointing never competes with itself for disk bandwidth.
func (ck *Checkpointing) enqueue(ph checkpoint.Phase, commit func() error) {
	job := func() {
		if err := commit(); err != nil {
			ck.mu.Lock()
			if ck.err == nil {
				ck.err = fmt.Errorf("core: checkpoint at %s: %w", ph, err)
			}
			ck.mu.Unlock()
		}
	}
	if ck.Sync {
		// Synchronous mode never populates the queue, so running the
		// commit inline preserves the strict ordering for free.
		job()
		return
	}
	ck.mu.Lock()
	ck.queue = append(ck.queue, job)
	if !ck.draining {
		ck.draining = true
		ck.wg.Add(1)
		go ck.drain()
	}
	ck.mu.Unlock()
}

// drain is the background writer: it empties the queue and exits, so
// an idle Checkpointing holds no goroutine.
func (ck *Checkpointing) drain() {
	defer ck.wg.Done()
	for {
		ck.mu.Lock()
		if len(ck.queue) == 0 {
			ck.draining = false
			ck.mu.Unlock()
			return
		}
		job := ck.queue[0]
		ck.queue = ck.queue[1:]
		ck.mu.Unlock()
		job()
	}
}

// Wait blocks until every enqueued snapshot has committed (or failed)
// and returns the first commit error. Call it after the job's Sorts
// have returned and before relying on the checkpoints — a launcher
// typically calls it between the sort and its final barrier. Safe to
// call from multiple goroutines and on a Checkpointing that never
// saved anything.
func (ck *Checkpointing) Wait() error {
	if ck == nil {
		return nil
	}
	ck.wg.Wait()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.err
}
