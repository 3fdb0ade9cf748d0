// Package core implements the SDS-Sort algorithm (Fig. 1 of the paper):
// skew-aware sample sort over a communicator, with adaptive node-level
// merging (τm), adaptive overlap of the all-to-all exchange with local
// ordering (τo), adaptive merge-versus-sort local ordering (τs), and an
// optional stable mode that preserves the input order of duplicate keys
// without secondary sorting keys.
package core

import (
	"fmt"

	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
)

// Options carries the paper's tunables. The zero value is not useful;
// start from DefaultOptions.
type Options struct {
	// Stable requests a stable sort: duplicate keys keep their global
	// input order (by rank, then by local position). Stability forces
	// the synchronous exchange path, as in the paper.
	Stable bool

	// Cores is the number of goroutines each rank may use for local
	// sorting and merging — the paper's c, cores per node. In an
	// in-process cluster the ranks already parallelise across CPUs, so
	// 1 is the honest default; real deployments set it to the node's
	// core count.
	Cores int

	// TauM is the node-level merging threshold in bytes: when the
	// average all-to-all message (local bytes / p) is at most TauM,
	// data is first merged onto each node's leader rank so fewer,
	// larger messages hit the network (§2.3). Zero disables merging.
	TauM int64

	// TauO is the overlap threshold: when the communicator has at most
	// TauO ranks (and the sort is not stable), the exchange overlaps
	// with local ordering, merging each source's run as it lands (§2.6).
	TauO int

	// TauS is the local-ordering threshold: with fewer than TauS
	// processes the received chunks are k-way merged; with more, they
	// are re-sorted, which is cheaper for large p (§2.7).
	TauS int

	// RunThreshold is the average run length above which the local
	// sort treats data as partially ordered and merges its natural
	// runs instead of sorting (§2.2/§2.7). Zero disables detection.
	RunThreshold float64

	// Mem, when non-nil, emulates the rank's memory budget: the input,
	// the receive buffer of the exchange and the staging window are all
	// reserved against it, and the sort fails with
	// memlimit.ErrOutOfMemory when the budget is exceeded — the failure
	// mode the paper observes for HykSort. Everything a Sort call
	// reserves is released by the time it returns, on every path.
	Mem *memlimit.Gauge

	// StageBytes bounds the staging window of the all-to-all data
	// exchange: each peer's payload moves in chunks of at most this
	// many bytes (rounded down to whole records), so the exchange's
	// memory beyond input and receive buffers is one incoming chunk
	// plus, for codecs that must encode, one outgoing chunk — reserved
	// against Mem. Zero means no chunking: each peer's payload is one
	// chunk and the window is the rank's largest per-peer payload.
	StageBytes int64

	// Exchange, when non-nil, accrues staged-exchange counters (bytes
	// staged, peak staging reservation, buffer-pool hit rate). May be
	// shared across ranks; the counters are atomic.
	Exchange *metrics.ExchangeStats

	// Timer, when non-nil, accrues per-phase wall time in the
	// categories of the paper's Figs. 9-10.
	Timer *metrics.PhaseTimer

	// Trace, when non-nil, receives structured events: adaptive
	// decisions taken, exchange volumes, partition summaries, and the
	// span.begin/span.end pairs that delimit the sort and its phases.
	Trace trace.Tracer

	// Span is the ambient span scope this sort runs under — sdsnode's
	// per-job span, a supervisor epoch span, a driver's root span. The
	// sort's own root span becomes a child of it; the zero value makes
	// the sort a trace root.
	Span trace.Scope

	// Skew, when non-nil, accrues per-phase load-imbalance gauges and
	// straggler counters (sds_phase_imbalance_max_mean,
	// sds_phase_straggler_total) and emits skew.phase trace events.
	// Setting it adds one small allgather per observed phase, which is
	// COLLECTIVE: like Spill, it must be nil or non-nil uniformly
	// across the ranks of a job, or the world deadlocks on the first
	// observation. May be shared across ranks; the counters are atomic.
	Skew *metrics.SkewStats

	// Checkpoint, when non-nil with a Store, snapshots each rank's data
	// at the phase boundaries (local sort, partition, exchange) and can
	// resume from a previously committed cut; see Checkpointing and
	// internal/checkpoint. Nil disables checkpointing entirely.
	Checkpoint *Checkpointing

	// Spill, when non-nil, enables the out-of-core spill tier: a
	// receive side that does not fit Mem (or Spill.Force) streams to
	// per-source run files merged lazily at output, and SortFileShard
	// becomes available for inputs larger than the budget. Must agree
	// across ranks — the spill decision is collective. See SpillOptions.
	Spill *SpillOptions
}

// DefaultOptions returns laptop-scale defaults; the τ values are the
// knees measured by the Fig. 5 experiments on this substrate (the paper
// measured 160MB / 4096 / 4000 on Edison).
func DefaultOptions() Options {
	return Options{
		Cores:        1,
		TauM:         4 << 10,
		TauO:         32,
		TauS:         64,
		RunThreshold: 32,
	}
}

// Validate reports option errors early.
func (o Options) Validate() error {
	if o.Cores < 0 {
		return fmt.Errorf("core: negative Cores %d", o.Cores)
	}
	if o.TauM < 0 {
		return fmt.Errorf("core: negative TauM %d", o.TauM)
	}
	if o.TauO < 0 || o.TauS < 0 {
		return fmt.Errorf("core: negative thresholds TauO=%d TauS=%d", o.TauO, o.TauS)
	}
	if o.StageBytes < 0 {
		return fmt.Errorf("core: negative StageBytes %d", o.StageBytes)
	}
	if sp := o.Spill; sp != nil {
		if sp.ChunkRecords < 0 || sp.MaxFanIn < 0 || sp.BufBytes < 0 {
			return fmt.Errorf("core: negative spill knob (ChunkRecords=%d MaxFanIn=%d BufBytes=%d)",
				sp.ChunkRecords, sp.MaxFanIn, sp.BufBytes)
		}
	}
	return nil
}

func (o Options) cores() int {
	if o.Cores < 1 {
		return 1
	}
	return o.Cores
}
