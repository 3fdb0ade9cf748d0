// Package psrs implements classic Parallel Sorting by Regular Sampling
// (Li, Lu, Schaeffer, Shillington, Wong, Shi — Parallel Computing 1993),
// the algorithm whose load-balance analysis (the O(2N/p) bound without
// duplicates, degrading linearly with skew) the paper builds on. It is
// the "classical PSS algorithm" of the paper's introduction and serves
// as a second baseline: correct and simple, but with no duplicate
// handling in its partition.
//
// The all-to-all runs through core.ExchangeSorted, the shared driver
// exchange: staged/zero-copy collectives, memory-budget accounting and
// the optional spill tier come from there rather than a private path.
package psrs

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
	"sdssort/internal/trace"
)

// Options configures PSRS.
type Options struct {
	// Cores bounds the goroutines for local sorting.
	Cores int
	// Mem emulates the rank's memory budget (nil = unlimited).
	Mem *memlimit.Gauge
	// Timer accrues per-phase time when non-nil.
	Timer *metrics.PhaseTimer
	// StageBytes bounds the staging window of the exchange, as
	// core.Options.StageBytes does for SDS-Sort. Zero means one chunk
	// per peer.
	StageBytes int64
	// Exchange accrues staged-exchange counters when non-nil.
	Exchange *metrics.ExchangeStats
	// Spill enables the out-of-core spill tier for the exchange (must
	// agree across ranks; the decision is collective).
	Spill *core.SpillOptions
	// Trace receives structured events when non-nil.
	Trace trace.Tracer
	// Span is the ambient span scope the exchange's spans nest under
	// (typically the driver-level "sort" root).
	Span trace.Scope
	// Skew accrues per-phase imbalance diagnostics when non-nil. Like
	// Spill, it must agree across ranks: the observation is collective.
	Skew *metrics.SkewStats
}

func (o Options) cores() int {
	if o.Cores < 1 {
		return 1
	}
	return o.Cores
}

func (o Options) timer() *metrics.PhaseTimer {
	if o.Timer != nil {
		return o.Timer
	}
	return metrics.NewPhaseTimer()
}

// coreOpt maps the PSRS knobs onto the shared exchange's options. TauO
// is pinned to zero: the classic formulation is one synchronous
// all-to-all followed by a k-way merge.
func (o Options) coreOpt(tm *metrics.PhaseTimer) core.Options {
	c := core.DefaultOptions()
	c.Cores = o.Cores
	c.Mem = o.Mem
	c.Timer = tm
	c.StageBytes = o.StageBytes
	c.Exchange = o.Exchange
	c.Spill = o.Spill
	c.Trace = o.Trace
	c.Span = o.Span
	c.Skew = o.Skew
	c.TauO = 0
	return c
}

// Sort runs PSRS collectively: local sort, regular sampling, gather of
// all samples on rank 0, broadcast of p-1 global pivots, upper_bound
// partition (duplicates all land on one rank), one all-to-all, k-way
// merge. Not stable, not skew-aware — by design.
func Sort[T any](c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	tm := opt.timer()
	tm.Start(metrics.PhaseOther)
	defer tm.Stop()

	recSize := int64(cd.Size())
	// held tracks the bytes this call still holds against the gauge:
	// the input reservation until ExchangeSorted settles it, then the
	// output. The defer returns the remainder on every exit.
	held := int64(len(data)) * recSize
	if err := opt.Mem.Reserve(held); err != nil {
		return nil, fmt.Errorf("psrs: input buffer: %w", err)
	}
	defer func() { opt.Mem.Release(held) }()

	tm.Start(metrics.PhaseLocalSort)
	// PSRS is never stable, so integer-keyed codecs always qualify for
	// the LSD radix dispatch.
	if !radix.DispatchLocal(data, cd, cmp) {
		psort.ParallelSort(data, opt.cores(), false, cmp)
	}
	p := c.Size()
	if p == 1 {
		return data, nil
	}

	// Regular sampling, gathered on rank 0 (the classic formulation).
	tm.Start(metrics.PhasePivotSelection)
	samples := pivots.RegularSample(data, p)
	parts, err := c.Gather(0, codec.EncodeSlice(cd, nil, samples))
	if err != nil {
		return nil, fmt.Errorf("psrs: sample gather: %w", err)
	}
	var pgBuf []byte
	if c.Rank() == 0 {
		var pool []T
		for r, buf := range parts {
			recs, err := codec.DecodeSlice(cd, buf)
			if err != nil {
				return nil, fmt.Errorf("psrs: samples from rank %d: %w", r, err)
			}
			pool = append(pool, recs...)
		}
		psort.Sort(pool, cmp)
		var pg []T
		if len(pool) > 0 {
			for i := 1; i < p; i++ {
				idx := i*len(pool)/p - 1
				if idx < 0 {
					idx = 0
				}
				pg = append(pg, pool[idx])
			}
		}
		pgBuf = codec.EncodeSlice(cd, nil, pg)
	}
	pgBuf, err = c.Bcast(0, pgBuf)
	if err != nil {
		return nil, fmt.Errorf("psrs: pivot broadcast: %w", err)
	}
	pg, err := codec.DecodeSlice(cd, pgBuf)
	if err != nil {
		return nil, fmt.Errorf("psrs: pivot decode: %w", err)
	}
	if len(pg) == 0 {
		return data, nil // empty dataset
	}

	// Plain upper_bound partition: no duplicate awareness.
	bounds := make([]int, p+1)
	bounds[p] = len(data)
	for j, s := range pg {
		bounds[j+1] = partition.UpperBound(data, s, cmp)
	}
	for j := 1; j <= p; j++ {
		if bounds[j] < bounds[j-1] {
			bounds[j] = bounds[j-1]
		}
	}

	out, err := core.ExchangeSorted(c, data, bounds, cd, cmp, opt.coreOpt(tm))
	if err != nil {
		held = 0 // ExchangeSorted settled the ledger on failure
		return nil, fmt.Errorf("psrs: exchange: %w", err)
	}
	held = int64(len(out)) * recSize
	return out, nil
}
