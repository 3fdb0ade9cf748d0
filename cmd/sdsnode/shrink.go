// Degraded-mode resume for one-shot checkpointed runs (-allow-shrink):
// when a peer rank dies mid-sort, the survivors agree on who is gone,
// re-form a smaller world over the still-live TCP fabric, redistribute
// the dead rank's checkpointed shards among themselves, and finish the
// sort — exiting 5 (degraded success) instead of 3 (restart me).
//
// The decision and the protocol are internal/cluster's (Decide, Probe,
// ReformAndAgree), the same code the in-process supervisor runs; this
// file is the flag plumbing around one call.
package main

import (
	"log"
	"time"

	"sdssort/internal/checkpoint"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/trace"
)

const (
	// probeTimeout bounds each liveness ping. Responders answer from a
	// dedicated goroutine regardless of what the rank is computing, so
	// a live peer answers in network round-trip time.
	probeTimeout = 2 * time.Second
	// reformTimeout bounds the shrunken world's first barrier. It must
	// cover the skew between survivors noticing the death — a survivor
	// blocked on a receive from the dead rank only fails out when its
	// -recv-timeout or -gap-timeout fires.
	reformTimeout = 30 * time.Second
)

// shrinkAndResume runs after a one-shot checkpointed sort lost a peer
// (sortErr). Returns the process exit code: exitDegraded when the sort
// finished on the survivors, exitPeerLost when the world cannot shrink
// (no cut, too few survivors, membership disagreement) — to a process
// that cannot relaunch itself a Relaunch plan means "tell the external
// supervisor to", the ordinary exit-3 contract.
func shrinkAndResume(cfg *config, fab *fabric, sortErr error, ck *core.Checkpointing, env *nodeEnv) int {
	// Settle this rank's store before anyone reads it: the snapshot
	// writer may still be committing the very cut we resume from.
	if err := ck.Wait(); err != nil {
		log.Printf("shrink: draining checkpoints: %v", err)
	}

	var c *comm.Comm
	var shrunk *checkpoint.Store
	plan := cluster.Decide(cluster.Failure{
		Err: sortErr, Epoch: fab.epoch, Size: cfg.size,
		Alive: cluster.Probe(fab.tr, fab.name, probeTimeout),
	}, cluster.Options{
		// This process heals itself once; any further restart budget is
		// the external supervisor's.
		MaxRestarts: fab.epoch + 1,
		Trace:       env.tracer,
		Shrink: cluster.ShrinkPolicy{Enabled: true, Redistribute: func(lost []int, oldSize, newEpoch int) (cut checkpoint.Cut, err error) {
			log.Printf("shrink: ranks %v are gone; re-forming world on %d survivors", lost, oldSize-len(lost))
			c, shrunk, cut, err = cluster.ReformAndAgree(fab.tr, cfg.ckptDir, lost, newEpoch, reformTimeout,
				func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error) {
					return checkpoint.RedistributeLatest(cfg.ckptDir, oldSize, lost, newEpoch, codec.Float64{}, codec.CompareOrdered[float64])
				})
			return cut, err
		}},
	})
	if plan.Action != cluster.Resume {
		log.Printf("shrink: %v; a full relaunch is needed", plan.Err)
		return exitPeerLost
	}
	log.Printf("resuming degraded from checkpoint %s on %d of %d ranks (rank %d -> %d)",
		plan.Epoch.Resume.Phase, c.Size(), cfg.size, cfg.rank, c.Rank())
	// Re-measure clock offsets on the reformed world: ranks renumber,
	// and the shrunken world's rank 0 — the new timeline origin — may be
	// a different host than the one that measured at boot.
	if err := syncClocks(c, env); err != nil {
		log.Printf("shrink: clock sync: %v", err)
		return exitCode(err)
	}

	// Flip the health plane before the long part, so a scrape during
	// the degraded sort already reports the shrunken world.
	env.worldSize.Store(int64(c.Size()))
	env.degraded.Store(true)

	// The degraded sort starts with no local input: every record of the
	// resumed run comes out of the redistributed store.
	nck := &core.Checkpointing{Store: shrunk, Epoch: plan.Epoch.N, Resume: plan.Epoch.Resume, Sync: ck.Sync}
	if code, _ := sortJob(c, cfg.job, nil, false, nck, "degraded: ", trace.Scope{Trace: cluster.WorldName(plan.Epoch.N, true, c.Size())}, env); code != exitOK {
		return code
	}
	if err := c.Barrier(); err != nil {
		log.Printf("shrink: final barrier: %v", err)
		return exitCode(err)
	}
	return exitDegraded
}
