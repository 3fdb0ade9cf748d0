// Package hyksort implements HykSort (Sundar, Malhotra, Biros — ICS'13),
// the state-of-the-art baseline the paper compares against: a
// generalised hypercube quicksort that recursively splits the
// communicator into k groups using histogram-selected splitters and
// exchanges data in log_k(p) staged rounds, avoiding a single monolithic
// all-to-all.
//
// Like the original (when run without secondary sorting keys), this
// implementation partitions records by upper_bound on the splitters: all
// records equal to a splitter value land in one group. On heavily
// duplicated data the histogram refinement cannot separate equal keys,
// splitters collapse onto the popular values, and the data concentrates
// on few ranks — the load imbalance and out-of-memory failure the
// paper's Figs. 6c/8/10 and Tables 3/4 document.
//
// The per-round bucket exchange runs through core.ExchangeSorted, the
// shared driver exchange: staged/zero-copy collectives, memory-budget
// accounting and the optional spill tier come from there rather than a
// private all-to-all.
package hyksort

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

// Options configures HykSort.
type Options struct {
	// K is the splitting arity per round; the HykSort paper found 128
	// optimal on their testbed and the SDS-Sort paper uses that value.
	K int
	// HistogramRounds is the number of refinement iterations in
	// splitter selection.
	HistogramRounds int
	// Cores bounds the goroutines used for local sorting.
	Cores int
	// Mem emulates the rank's memory budget (nil = unlimited).
	Mem *memlimit.Gauge
	// Timer accrues per-phase time when non-nil.
	Timer *metrics.PhaseTimer
	// StageBytes bounds the staging window of the per-round exchange,
	// as core.Options.StageBytes does for SDS-Sort. Zero means one
	// chunk per peer.
	StageBytes int64
	// Exchange accrues staged-exchange counters when non-nil.
	Exchange *metrics.ExchangeStats
	// Spill enables the out-of-core spill tier for the per-round
	// exchange (must agree across ranks; the decision is collective).
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

// DefaultOptions mirrors the published configuration.
func DefaultOptions() Options {
	return Options{K: 128, HistogramRounds: 3, Cores: 1}
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

// coreOpt maps the HykSort knobs onto the shared exchange's options.
// TauO is pinned to zero: every round takes the synchronous exchange,
// whose rank-ordered chunks keep the k-way merge deterministic.
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

// Sort runs HykSort collectively: each rank contributes its local slice
// and receives its block of the globally sorted output (rank order =
// value order). The sort is not stable.
func Sort[T any](c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	if opt.K < 2 {
		opt.K = 2
	}
	tm := opt.timer()
	tm.Start(metrics.PhaseOther)
	defer tm.Stop()

	recSize := int64(cd.Size())
	// held tracks the bytes this call still holds against the gauge:
	// the input reservation, then — after each round's ExchangeSorted
	// settles the previous holding — the current working set. The defer
	// returns the remainder on every exit, so repeated sorts cannot
	// leak the (shared, long-lived) gauge.
	held := int64(len(data)) * recSize
	if err := opt.Mem.Reserve(held); err != nil {
		return nil, fmt.Errorf("hyksort: input buffer: %w", err)
	}
	defer func() { opt.Mem.Release(held) }()

	tm.Start(metrics.PhaseLocalSort)
	// HykSort is never stable, so integer-keyed codecs always qualify
	// for the LSD radix dispatch.
	if !radix.DispatchLocal(data, cd, cmp) {
		psort.ParallelSort(data, opt.cores(), false, cmp)
	}

	local := data
	cur := c
	for cur.Size() > 1 {
		var err error
		local, cur, err = round(cur, local, cd, cmp, recSize, opt, tm, &held)
		if err != nil {
			return nil, err
		}
	}
	return local, nil
}

// round performs one k-way split: select splitters, exchange buckets to
// their groups, and narrow the communicator to this rank's group. held
// is the caller's gauge ledger; the exchange settles it.
func round[T any](cur *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int, recSize int64, opt Options, tm *metrics.PhaseTimer, held *int64) ([]T, *comm.Comm, error) {
	p := cur.Size()
	b := opt.K
	if b > p {
		b = p
	}

	// Histogram-based splitter selection (no duplicate awareness).
	tm.Start(metrics.PhasePivotSelection)
	splitters, err := pivots.HistogramSplitters(cur, local, b-1, opt.HistogramRounds, cd, cmp)
	if err != nil {
		return nil, nil, fmt.Errorf("hyksort: splitter selection: %w", err)
	}
	if len(splitters) == 0 {
		// Globally empty dataset: no rank contributed a candidate, and
		// every rank observes the same empty pool, so ending the
		// recursion by splitting into singleton worlds stays collective.
		sub, err := cur.Split(cur.Rank(), 0)
		if err != nil {
			return nil, nil, fmt.Errorf("hyksort: empty split: %w", err)
		}
		return local, sub, nil
	}
	if len(splitters) != b-1 {
		return nil, nil, fmt.Errorf("hyksort: selected %d splitters for %d groups", len(splitters), b)
	}

	// Bucket boundaries by plain upper_bound: every record equal to a
	// splitter goes below it, i.e. to a single group.
	bounds := make([]int, b+1)
	bounds[b] = len(local)
	for j, s := range splitters {
		bounds[j+1] = partition.UpperBound(local, s, cmp)
	}
	for j := 1; j <= b; j++ {
		if bounds[j] < bounds[j-1] {
			bounds[j] = bounds[j-1]
		}
	}

	// Rank layout: group j owns ranks [j*p/b, (j+1)*p/b). Each rank
	// scatters bucket j to one rank of group j, spreading senders
	// round-robin across the group's members. The targets are strictly
	// increasing in j, so the locally sorted data is already in
	// destination order and the buckets translate directly into the
	// per-destination bounds the shared exchange wants.
	groupOf := func(rank int) int { return rank * b / p }
	groupStart := func(j int) int {
		// First rank whose group is j.
		lo := (j*p + b - 1) / b
		for groupOf(lo) != j {
			lo++
		}
		return lo
	}
	myRank := cur.Rank()
	cnt := make([]int, p)
	for j := 0; j < b; j++ {
		gs := groupStart(j)
		ge := p
		if j < b-1 {
			ge = groupStart(j + 1)
		}
		cnt[gs+myRank%(ge-gs)] = bounds[j+1] - bounds[j]
	}
	db := make([]int, p+1)
	for dst := 0; dst < p; dst++ {
		db[dst+1] = db[dst] + cnt[dst]
	}

	merged, err := core.ExchangeSorted(cur, local, db, cd, cmp, opt.coreOpt(tm))
	if err != nil {
		*held = 0 // ExchangeSorted settled the ledger on failure
		return nil, nil, fmt.Errorf("hyksort: exchange: %w", err)
	}
	*held = int64(len(merged)) * recSize

	tm.Start(metrics.PhaseOther)
	sub, err := cur.Split(groupOf(myRank), myRank)
	if err != nil {
		return nil, nil, fmt.Errorf("hyksort: group split: %w", err)
	}
	return merged, sub, nil
}
