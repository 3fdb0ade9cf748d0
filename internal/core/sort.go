package core

import (
	"fmt"

	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/pivots"
)

// tagNodeMerge is the user tag of the node-level merge gather's
// point-to-point traffic. The collectives (alltoall, allgather, …) use
// the comm package's reserved tag space.
const tagNodeMerge = 2

// Sort runs SDS-Sort collectively: every rank of c calls it with its
// local slice of the input and receives its block of the globally sorted
// output. Sort overwrites the input, and the returned block may occupy
// its storage. Concatenating the returned slices in rank order yields
// the sorted dataset; with opt.Stable the concatenation also preserves
// the input order of equal records (input order = rank order, then local
// position).
//
// When node-level merging triggers (τm), the output lives on each
// node's leader rank and the other ranks return empty slices — the same
// ownership change the paper's algorithm performs when it rewrites its
// communicator (Fig. 1 line 6).
func Sort[T any](c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	r, err := newRun(c, cd, cmp, opt)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.start(map[string]any{"records": len(data), "stable": opt.Stable, "p": c.Size()})
	r.work = data
	if err := r.acct.reserve(int64(len(data)) * r.recSize); err != nil {
		return nil, fmt.Errorf("core: input buffer: %w", err)
	}
	// Fig. 1 as a list. The τm sizing collective is the first thing to
	// wait on the slowest rank's local sort, so node merging starts on
	// that clock (an actual merge switches to "other"), and the
	// partition is charged to pivot selection, as the paper's figures
	// do. The exchange opens its own spans: which ones depends on the
	// path the spill vote and τo select. The pivots phase samples the
	// slab once: the sample is the rank's local pivots and indexes its
	// partition search.
	var local partition.Stripe[T]
	phases := []phase{
		{name: "localsort", clock: metrics.PhaseLocalSort, begin: map[string]any{"records": len(data)},
			body: r.sortLocal, cut: checkpoint.PhaseLocalSort, skew: metrics.SkewLocalSort},
		{name: "nodemerge", clock: metrics.PhaseLocalSort, body: r.mergeNodes},
		{name: "pivots", clock: metrics.PhasePivotSelection, body: func() (map[string]any, error) {
			local = partition.NewStripe(r.work, r.wc.Size(), r.cmp)
			return r.selectPivots(local.Pivots)
		}},
		{name: "partition", clock: metrics.PhasePivotSelection, body: func() (map[string]any, error) {
			return r.splitWork(local)
		}, cut: checkpoint.PhasePartition},
		{clock: metrics.PhaseExchange, body: r.exchangeAndOrder},
	}
	from, err := r.restore()
	if err != nil {
		return nil, err
	}
	// A resumed sort enters the list after the phase that commits its cut.
	for i := range phases {
		if from != checkpoint.PhaseNone && phases[i].cut == from {
			phases = phases[i+1:]
			break
		}
	}
	if err := r.runPhases(phases); err != nil {
		return nil, err
	}
	// Every successful exit ends on the rank's final block. A follower
	// also leaves an empty partition snapshot: without it no later
	// partition cut could ever become globally consistent.
	if r.exit == "follower" {
		r.commit(checkpoint.PhasePartition)
	}
	r.commit(checkpoint.PhaseFinal)
	r.done(len(r.work))
	return r.work, nil
}

// sortLocal is the initial local ordering (Fig. 1 line 2): sorted local
// data makes regular sampling representative and feeds the τm merge. It
// is its own reporting phase — charging it to pivot selection would
// dwarf the actual sampling cost. The skew observed after it is
// input-side: how evenly the records arrived, before any skew-aware
// machinery has run.
func (r *run[T]) sortLocal() (map[string]any, error) {
	detail := map[string]any{"records": len(r.work)}
	var err error
	r.work, err = r.order(r.work, r.opt.RunThreshold, detail)
	return detail, err
}

// selectPivots is global pivot selection (lines 8-9) on every route,
// from the rank's local pivots — its regular (equal-stripe) sample: the
// pool is ordered with a distributed bitonic sort and the global pivots
// taken at equal stride. Duplicated pivots are kept, since the
// skew-aware split wants to see them, and the pivots span reports how
// many runs of them there are and how many pivots they hold.
func (r *run[T]) selectPivots(local []T) (map[string]any, error) {
	var err error
	if r.pg, err = pivots.SelectGlobal(r.wc, local, r.cd, r.cmp); err != nil {
		return nil, fmt.Errorf("core: pivot selection: %w", err)
	}
	detail := map[string]any{"pivots": len(r.pg)}
	if dupRuns := partition.Runs(r.pg, r.cmp); len(dupRuns) > 0 {
		total := 0
		for _, run := range dupRuns {
			total += run.Len
		}
		detail["dup_runs"], detail["duplicated_pivots"] = len(dupRuns), total
	}
	return detail, r.checkPivots(r.pg)
}

// splitWork is the skew-aware partition (line 10), fast or stable, of
// the rank's slab as one stripe, searched through local, the slab's
// local pivots.
func (r *run[T]) splitWork(local partition.Stripe[T]) (map[string]any, error) {
	lb, ub := partition.Locate(r.work, r.pg, local, r.cmp)
	bounds, err := split(r, [][]int{lb}, [][]int{ub}, []int{len(r.work)})
	if err != nil {
		return nil, err
	}
	r.bounds = bounds[0]
	return map[string]any{"dests": len(r.bounds) - 1}, nil
}

// split cuts the rank's sorted stripes — its resident slab, or its
// local runs in input order — by partition.Split, given each stripe's
// pivot bounds and length. Under the stable rule one collective places
// the rank's duplicates after those of the ranks before it; every rank
// holds the same pivots, so all skip it alike when none is replicated.
func split[T any, I int | int64](r *run[T], lbs, ubs [][]I, ns []I) ([][]I, error) {
	dupRuns := partition.Runs(r.pg, r.cmp)
	var dups []partition.Dups
	if r.opt.Stable && len(dupRuns) > 0 {
		local := make([]int64, len(dupRuns))
		for s := range ns {
			for k, dr := range dupRuns {
				local[k] += int64(ubs[s][dr.Start] - lbs[s][dr.Start])
			}
		}
		var err error
		if dups, err = r.gatherDupCounts(local); err != nil {
			return nil, fmt.Errorf("core: partition: %w", err)
		}
	}
	bounds := make([][]I, len(ns))
	for s, n := range ns {
		bounds[s] = partition.Split(dupRuns, lbs[s], ubs[s], n, dups)
		if err := partition.Validate(bounds[s], n); err != nil {
			return nil, fmt.Errorf("core: partition: %w", err)
		}
	}
	return bounds, nil
}

// gatherDupCounts all-gathers local, this rank's count of records
// equal to each replicated pivot run's value, and places the rank in
// each run's duplicate order.
func (r *run[T]) gatherDupCounts(local []int64) ([]partition.Dups, error) {
	parts, err := r.wc.Allgather(comm.EncodeInt64s(local))
	if err != nil {
		return nil, fmt.Errorf("duplicate-count gather: %w", err)
	}
	dups := make([]partition.Dups, len(local))
	for src, buf := range parts {
		vals, err := comm.DecodeInt64s(buf)
		if err != nil || len(vals) != len(local) {
			return nil, fmt.Errorf("bad duplicate counts from rank %d", src)
		}
		for k, v := range vals {
			if src < r.wc.Rank() {
				dups[k].Start += v // my duplicates follow those of every rank before me
			}
			dups[k].Total += v
		}
	}
	return dups, nil
}

// plan performs the MPI_Alltoall of send counts (Fig. 1 line 11) — how
// many records each rank will deliver to us — and fixes the exchange's
// payload sizes.
func (r *run[T]) plan(scounts []int) (exchangePlan, error) {
	parts := make([][]byte, len(scounts))
	for dst, sc := range scounts {
		parts[dst] = comm.EncodeInt64s([]int64{int64(sc)})
	}
	recv, err := r.wc.Alltoall(parts)
	if err != nil {
		return exchangePlan{}, fmt.Errorf("core: count exchange: %w", err)
	}
	rcounts := make([]int64, len(recv))
	for src, buf := range recv {
		vals, err := comm.DecodeInt64s(buf)
		if err != nil || len(vals) != 1 {
			return exchangePlan{}, fmt.Errorf("core: count exchange: bad count from rank %d", src)
		}
		if vals[0] < 0 {
			return exchangePlan{}, fmt.Errorf("core: count exchange: negative count %d from rank %d", vals[0], src)
		}
		rcounts[src] = vals[0]
	}
	return exchangePlan{
		span: "exchange",
		send: scale(scounts, r.recSize), recv: scale(rcounts, r.recSize),
	}, nil
}
