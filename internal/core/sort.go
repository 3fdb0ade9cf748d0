package core

import (
	"fmt"

	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
	"sdssort/internal/trace"
)

// User tags for the sort's point-to-point traffic. The collectives
// (alltoall, allgather, …) use the comm package's reserved tag space.
const (
	tagExchange  = 1 // overlapped all-to-all data
	tagNodeMerge = 2 // node-level merge gather
)

// Sort runs SDS-Sort collectively: every rank of c calls it with its
// local slice of the input (which Sort may reorder) and receives its
// block of the globally sorted output. Concatenating the returned
// slices in rank order yields the sorted dataset; with opt.Stable the
// concatenation also preserves the input order of equal records (input
// order = rank order, then local position).
//
// When node-level merging triggers (τm), the output lives on each
// node's leader rank and the other ranks return empty slices — the same
// ownership change the paper's algorithm performs when it rewrites its
// communicator (Fig. 1 line 6).
func Sort[T any](c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	tm := opt.timer()
	tm.Start(metrics.PhaseOther)
	defer tm.Stop()

	recSize := int64(cd.Size())
	// Every byte this call reserves goes through the acct ledger, and
	// the deferred releaseAll returns whatever is still held on *any*
	// exit — success, follower dropout, error, even a panic unwinding —
	// so repeated sorts cannot leak the (shared, long-lived) gauge.
	acct := &memAcct{g: opt.Mem}
	defer acct.releaseAll()
	if err := acct.reserve(int64(len(data)) * recSize); err != nil {
		return nil, fmt.Errorf("core: input buffer: %w", err)
	}

	tr := opt.tracer()
	ck := opt.Checkpoint
	rank := c.Rank()
	tr.Emit(rank, "sort.start", map[string]any{
		"records": len(data), "stable": opt.Stable, "p": c.Size(),
	})
	// The sort's root span. Phase spans started below become its
	// children through opt.Span, which is rebound to the root's scope
	// so every helper (exchange paths, checkpoint writes) parents
	// correctly without extra plumbing. With tracing off sp is nil and
	// all span calls are free no-ops.
	sp := trace.StartSpan(tr, rank, opt.Span, "sort", map[string]any{
		"records": len(data), "stable": opt.Stable, "p": c.Size(),
	})
	sc := sp.Scope()
	opt.Span = sc
	spDone := false
	endSpan := func(detail map[string]any) {
		if !spDone {
			spDone = true
			sp.End(detail)
		}
	}
	// Error exits close the root span too, so a failed sort shows as a
	// terminated span with reason "error" rather than a dangling one.
	defer func() { endSpan(map[string]any{"reason": "error"}) }()
	// done emits the terminal event every successful exit path must
	// produce, with the reason that path returned.
	done := func(out []T, reason string) ([]T, error) {
		tr.Emit(rank, "sort.done", map[string]any{"records": len(out), "reason": reason})
		endSpan(map[string]any{"records": len(out), "reason": reason})
		return out, nil
	}

	// Resuming past the exchange: this rank's block of the output is
	// already on disk, nothing to compute. The snapshot is re-committed
	// under the current epoch so every epoch is self-contained for any
	// later resume.
	if ck.resumeAt(checkpoint.PhaseFinal) {
		m, out, err := loadCkpt(ck, tr, rank, sc, checkpoint.PhaseFinal, cd)
		if err != nil {
			return nil, err
		}
		if err := saveCkpt(ck, tr, rank, sc, checkpoint.PhaseFinal, m.Merged, m.Leader, nil, cd, out); err != nil {
			return nil, err
		}
		return done(out, "resume")
	}

	var (
		work   []T
		wc     *comm.Comm
		merged bool
		bounds []int
	)
	if ck.resumeAt(checkpoint.PhasePartition) {
		// The partition snapshot holds the (possibly node-merged)
		// working set and the send boundaries: skip local sort, merge,
		// pivot selection and partition entirely.
		m, loaded, err := loadCkpt(ck, tr, rank, sc, checkpoint.PhasePartition, cd)
		if err != nil {
			return nil, err
		}
		if m.Merged {
			// Replay the communicator rewrite the τm merge performed.
			// SplitByNode is communication-free and every rank takes
			// this branch (Merged is global), so the split sequence
			// stays aligned across the job.
			_, leaders, err := c.SplitByNode()
			if err != nil {
				return nil, fmt.Errorf("core: resume node split: %w", err)
			}
			if !m.Leader {
				if err := dropOut(ck, tr, rank, sc, cd); err != nil {
					return nil, err
				}
				tr.Emit(rank, "nodemerge.follower", nil)
				return done([]T{}, "follower")
			}
			wc = leaders
		} else {
			wc = c
		}
		merged = m.Merged
		work = loaded
		if extra := (int64(len(work)) - int64(len(data))) * recSize; extra > 0 {
			if err := acct.reserve(extra); err != nil {
				return nil, fmt.Errorf("core: resume buffer: %w", err)
			}
		}
		if len(m.Bounds) != wc.Size()+1 {
			return nil, fmt.Errorf("core: resume: %d bounds for %d processes", len(m.Bounds), wc.Size())
		}
		bounds = make([]int, len(m.Bounds))
		for i, b := range m.Bounds {
			bounds[i] = int(b)
		}
		if err := partition.Validate(bounds, len(work)); err != nil {
			return nil, fmt.Errorf("core: resume partition: %w", err)
		}
		if err := saveCkpt(ck, tr, rank, sc, checkpoint.PhasePartition, merged, true, m.Bounds, cd, work); err != nil {
			return nil, err
		}
	} else {
		// Initial local ordering (Fig. 1 line 2): sorted local data
		// makes regular sampling representative and feeds the τm merge.
		// This is its own reporting phase — charging it to pivot
		// selection would dwarf the actual sampling cost.
		tm.Start(metrics.PhaseLocalSort)
		lsp := trace.StartSpan(tr, rank, sc, "localsort", map[string]any{"records": len(data)})
		if ck.resumeAt(checkpoint.PhaseLocalSort) {
			_, loaded, err := loadCkpt(ck, tr, rank, sc, checkpoint.PhaseLocalSort, cd)
			if err != nil {
				return nil, err
			}
			// A degraded resume hands each survivor its own run plus a
			// slice of the dead ranks' — larger than the data the caller
			// budgeted for. Reserve the difference before adopting it.
			if extra := (int64(len(loaded)) - int64(len(data))) * recSize; extra > 0 {
				if err := acct.reserve(extra); err != nil {
					return nil, fmt.Errorf("core: resume buffer: %w", err)
				}
			}
			data = loaded
		} else {
			if ck.enabled() && ck.Epoch > 0 {
				// Restarted with nothing resumable: everything the
				// failed epochs computed is being redone.
				ck.Recovery.Wasted(int64(len(data)))
			}
			// Integer-keyed codecs dispatch to the LSD radix pass;
			// everything else (and every stable sort) takes the
			// comparison sort. Both are charged to the local-sort
			// clock.
			if !localSortFast(data, cd, cmp, opt) {
				psort.AdaptiveSort(data, opt.cores(), opt.Stable, opt.RunThreshold, cmp)
			}
		}
		lsp.End(map[string]any{"records": len(data)})
		if err := saveCkpt(ck, tr, rank, sc, checkpoint.PhaseLocalSort, false, true, nil, cd, data); err != nil {
			return nil, err
		}
		// Input-side skew: how evenly the records arrived across ranks,
		// before any skew-aware machinery has run. Collective (every
		// rank of c is still present here).
		if err := observeSkew(c, metrics.SkewLocalSort, int64(len(data)), opt, tr, rank); err != nil {
			return nil, err
		}

		// Node-level merging (lines 3-7).
		var isLeader bool
		var err error
		nsp := trace.StartSpan(tr, rank, sc, "nodemerge", nil)
		work, wc, isLeader, err = nodeMerge(c, data, cd, cmp, recSize, opt, tm, acct)
		if err != nil {
			return nil, err
		}
		nsp.End(map[string]any{"leader": isLeader, "records": len(work)})
		if !isLeader {
			// Our records were merged onto the node leader; we hold no
			// output and take no further part. The input reservation
			// was already returned inside nodeMerge, the moment the
			// records were handed to the leader.
			if err := dropOut(ck, tr, rank, sc, cd); err != nil {
				return nil, err
			}
			tr.Emit(rank, "nodemerge.follower", nil)
			return done([]T{}, "follower")
		}
		merged = wc != c
		if len(work) != len(data) || merged {
			tr.Emit(rank, "nodemerge.leader", map[string]any{
				"merged_records": len(work), "leaders": wc.Size(),
			})
		}
		p := wc.Size()
		if p == 1 {
			if merged {
				if err := saveCkpt(ck, tr, rank, sc, checkpoint.PhaseFinal, merged, true, nil, cd, work); err != nil {
					return nil, err
				}
			} else {
				aliasCkpt(ck, tr, rank, sc, checkpoint.PhaseFinal, checkpoint.PhaseLocalSort, merged, true, nil)
			}
			return done(work, "single")
		}

		// Sampling and global pivot selection (lines 8-9).
		tm.Start(metrics.PhasePivotSelection)
		method := "regular"
		if opt.Pivots == PivotHistogram {
			method = "histogram"
		}
		psp := trace.StartSpan(tr, rank, sc, "pivots", map[string]any{"method": method})
		var pg []T
		switch opt.Pivots {
		case PivotHistogram:
			pg, err = pivots.HistogramSplitters(wc, work, p-1, 3, cd, cmp)
		default:
			pl := pivots.RegularSample(work, p)
			pg, err = pivots.SelectGlobal(wc, pl, cd, cmp)
		}
		if err != nil {
			return nil, fmt.Errorf("core: pivot selection: %w", err)
		}
		psp.End(map[string]any{"pivots": len(pg)})
		if len(pg) == 0 {
			// The whole dataset is empty: nothing to exchange.
			if merged {
				if err := saveCkpt(ck, tr, rank, sc, checkpoint.PhaseFinal, merged, true, nil, cd, work); err != nil {
					return nil, err
				}
			} else {
				aliasCkpt(ck, tr, rank, sc, checkpoint.PhaseFinal, checkpoint.PhaseLocalSort, merged, true, nil)
			}
			return done(work, "empty")
		}
		if len(pg) != p-1 {
			return nil, fmt.Errorf("core: selected %d global pivots for %d processes", len(pg), p)
		}
		if dupRuns := partition.Runs(pg, cmp); len(dupRuns) > 0 {
			total := 0
			for _, r := range dupRuns {
				total += r.Len
			}
			tr.Emit(rank, "pivots.duplicated", map[string]any{
				"runs": len(dupRuns), "duplicated_pivots": total, "pivots": len(pg),
			})
		}

		// Skew-aware partition (line 10), accelerated by the local
		// pivots.
		ptsp := trace.StartSpan(tr, rank, sc, "partition", nil)
		bounds, err = partitionData(wc, work, pg, cmp, opt)
		if err != nil {
			return nil, fmt.Errorf("core: partition: %w", err)
		}
		ptsp.End(map[string]any{"dests": len(bounds) - 1})
		b64 := make([]int64, len(bounds))
		for i, b := range bounds {
			b64[i] = int64(b)
		}
		if merged {
			if err := saveCkpt(ck, tr, rank, sc, checkpoint.PhasePartition, merged, true, b64, cd, work); err != nil {
				return nil, err
			}
		} else {
			// Without node merging the working set IS the local-sort
			// snapshot; only the bounds are new. Alias it instead of
			// writing the data a second time.
			aliasCkpt(ck, tr, rank, sc, checkpoint.PhasePartition, checkpoint.PhaseLocalSort, merged, true, b64)
		}
	}
	// Count exchange, data exchange and local ordering (lines 11-27).
	out, reason, err := exchangeAndOrder(wc, rank, work, bounds, cd, cmp, opt, tm, acct)
	if err != nil {
		return nil, err
	}
	if err := saveCkpt(ck, tr, rank, sc, checkpoint.PhaseFinal, merged, true, nil, cd, out); err != nil {
		return nil, err
	}
	return done(out, reason)
}

// partitionData computes this rank's send boundaries using the fast or
// stable skew-aware partition. The stable variant needs one collective:
// the all-gather of per-run duplicate counts.
func partitionData[T any](wc *comm.Comm, work []T, pg []T, cmp func(a, b T) int, opt Options) ([]int, error) {
	loc := partition.NewStripe(work, len(pg)+1, cmp)
	if opt.DisableSkewAware && !opt.Stable {
		// Ablation: the classical partition — correct, but all
		// duplicates of a pivot value land on one destination.
		p := len(pg) + 1
		bounds := make([]int, p+1)
		bounds[p] = len(work)
		for j, v := range pg {
			bounds[j+1] = loc.UpperBound(work, v)
		}
		for j := 1; j <= p; j++ {
			if bounds[j] < bounds[j-1] {
				bounds[j] = bounds[j-1]
			}
		}
		return bounds, partition.Validate(bounds, len(work))
	}
	if !opt.Stable {
		bounds := partition.Fast(work, pg, loc, cmp)
		return bounds, partition.Validate(bounds, len(work))
	}
	runs := partition.Runs(pg, cmp)
	var dupCounts [][]int64
	if len(runs) > 0 {
		local := partition.LocalDupCounts(work, pg, runs, loc)
		parts, err := wc.Allgather(comm.EncodeInt64s(local))
		if err != nil {
			return nil, fmt.Errorf("duplicate-count gather: %w", err)
		}
		dupCounts = make([][]int64, len(runs))
		for k := range dupCounts {
			dupCounts[k] = make([]int64, wc.Size())
		}
		for r, buf := range parts {
			vals, err := comm.DecodeInt64s(buf)
			if err != nil || len(vals) != len(runs) {
				return nil, fmt.Errorf("bad duplicate counts from rank %d", r)
			}
			for k, v := range vals {
				dupCounts[k][r] = v
			}
		}
	}
	bounds, err := partition.Stable(work, pg, loc, cmp, wc.Rank(), dupCounts)
	if err != nil {
		return nil, err
	}
	return bounds, partition.Validate(bounds, len(work))
}

// exchangeCounts performs the MPI_Alltoall of send counts (Fig. 1 line
// 11), returning how many records each rank will deliver to us.
func exchangeCounts(wc *comm.Comm, scounts []int) ([]int64, error) {
	p := wc.Size()
	parts := make([][]byte, p)
	for dst, sc := range scounts {
		parts[dst] = comm.EncodeInt64s([]int64{int64(sc)})
	}
	recv, err := wc.Alltoall(parts)
	if err != nil {
		return nil, err
	}
	rcounts := make([]int64, p)
	for src, buf := range recv {
		vals, err := comm.DecodeInt64s(buf)
		if err != nil || len(vals) != 1 {
			return nil, fmt.Errorf("bad count from rank %d", src)
		}
		if vals[0] < 0 {
			return nil, fmt.Errorf("negative count %d from rank %d", vals[0], src)
		}
		rcounts[src] = vals[0]
	}
	return rcounts, nil
}
