// Package algo is the pluggable algorithm layer: every distributed sort
// in the tree — SDS-Sort and the competitor baselines — sits behind one
// Driver contract, so front ends, experiments and benchmarks select an
// algorithm by registry name (or let the runtime profile the data and
// pick one, see the auto driver) instead of hand-wiring each package's
// option struct. The baseline drivers run each call on one
// core.Baseline, core.Sort's per-call state, which carries the local
// sort, the staged/zero-copy collectives, memory-budget accounting and
// the out-of-core spill tier; the layer therefore compares algorithms,
// not plumbing.
package algo

import (
	"context"
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/trace"
)

// Capabilities declares what a driver can honour. Front ends check them
// before dispatch (e.g. -stable with a driver that cannot keep it is an
// error, not a silent downgrade).
type Capabilities struct {
	// Stable: duplicate keys keep their global input order.
	Stable bool
	// Checkpoint: phase-checkpointed recovery is supported.
	Checkpoint bool
}

// Info identifies a registered driver.
type Info struct {
	Name  string
	About string
	Caps  Capabilities
}

// Options carries the cross-driver tunables. Drivers map the fields
// they understand onto their own knobs and ignore the rest; zero values
// mean "driver default".
type Options struct {
	// Core carries the shared tunables every driver consumes through
	// core.Baseline — Mem, StageBytes, Spill, Exchange, Timer, Trace,
	// Cores, τo, τs, RunThreshold — plus the SDS-Sort-specific ones (τm,
	// Stable, Checkpoint) that only the sds driver honours.
	Core core.Options
	// K is the splitting arity of the multi-way drivers (hyksort: 128,
	// ams: 4 when zero).
	K int
	// Selection, when non-nil, counts which driver each sort actually
	// ran (the resolved choice under auto).
	Selection *metrics.AlgoStats
}

// DefaultOptions returns the shared defaults; per-driver knobs stay at
// their zero values and resolve inside each driver.
func DefaultOptions() Options {
	return Options{Core: core.DefaultOptions()}
}

func (o Options) tracer() trace.Tracer {
	if o.Core.Trace != nil {
		return o.Core.Trace
	}
	return trace.Nop{}
}

// Driver is one distributed sort algorithm. Sort is collective: every
// rank of c calls it with its local slice, which the driver overwrites
// and whose storage may hold the output, and receives its block of the
// globally sorted output, rank order = value order. Cancellation via ctx
// is checked at phase boundaries, not mid-collective.
type Driver[T any] interface {
	Sort(ctx context.Context, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error)
}

// reject enforces the capability gates shared by every driver but sds.
// An explicit error beats a silent downgrade: the caller asked for a
// property the output would not have.
func reject(name string, opt Options) error {
	if opt.Core.Stable {
		return fmt.Errorf("algo: driver %q does not support stable sorting", name)
	}
	if opt.Core.Checkpoint != nil {
		return fmt.Errorf("algo: driver %q does not support checkpointing", name)
	}
	return nil
}

// sorter is one call of a baseline driver (hss, ams, hyksort, psrs)
// after the shared prelude. The drivers keep only their splitter logic;
// the local sort, every exchange, the memory ledger and the sort's trace
// envelope live in run, core's per-call state, opened once.
type sorter[T any] struct {
	name string
	ctx  context.Context
	c    *comm.Comm
	cmp  func(a, b T) int
	run  *core.Baseline[T]
}

// begin is the prelude: cancellation and capability checks, the
// selection count, then core.OpenBaseline — the "sort" root span every
// level's spans nest under, so the critical-path analyzer sees
// one tree per sort regardless of algorithm, the input reservation and
// the local sort, whose block it returns. Callers defer s.run.Close.
func begin[T any](ctx context.Context, name string, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (*sorter[T], []T, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := reject(name, opt); err != nil {
		return nil, nil, err
	}
	opt.Selection.Selected(name)
	run, data, err := core.OpenBaseline(c, data, cd, cmp, opt.Core, map[string]any{"algo": name, "records": len(data), "p": c.Size()})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return &sorter[T]{name: name, ctx: ctx, c: c, cmp: cmp, run: run}, data, nil
}

// oneShot is the single-exchange skeleton (hss, psrs): pick p-1
// splitters, cut the sorted data by the classical partition — these
// drivers are duplicate-oblivious by design — and exchange once.
func (s *sorter[T]) oneShot(data []T, pick func() ([]T, error)) ([]T, error) {
	if s.c.Size() == 1 {
		return s.run.Done("single"), nil
	}
	s.run.Phase(metrics.PhasePivotSelection)
	sp, err := pick()
	if err != nil {
		return nil, fmt.Errorf("%s: splitter selection: %w", s.name, err)
	}
	if len(sp) == 0 {
		return s.run.Done("empty"), nil
	}
	if _, err := s.run.Exchange(s.c, partition.Classical(data, sp, s.cmp)); err != nil {
		return nil, fmt.Errorf("%s: exchange: %w", s.name, err)
	}
	return s.run.Done("completed"), nil
}

// levels is the recursion the multi-level drivers (ams, hyksort) share:
// until this rank is alone, pick b-1 = min(k, p)-1 splitters over the
// current communicator, cut the sorted data into b buckets by the
// classical partition, let deliver translate buckets into
// per-destination bounds — group j owns the consecutive ranks
// [starts[j], starts[j+1]) — exchange, and narrow the communicator to
// this rank's group. p ranks take O(log_k p) exchange levels instead of
// one p-wide all-to-all. Cancellation is checked between levels. It
// returns the number of levels run.
func (s *sorter[T]) levels(data []T, k int,
	pick func(cur *comm.Comm, local []T, b int) ([]T, error),
	deliver func(buckets, starts []int, me int) []int,
) ([]T, int, error) {
	cur, local, n, reason := s.c, data, 0, "single"
	for ; cur.Size() > 1; n++ {
		if err := s.ctx.Err(); err != nil {
			return nil, n, err
		}
		p, me := cur.Size(), cur.Rank()
		b := min(k, p)
		s.run.Phase(metrics.PhasePivotSelection)
		sp, err := pick(cur, local, b)
		if err != nil {
			return nil, n, fmt.Errorf("%s: splitter selection: %w", s.name, err)
		}
		// No splitters: the dataset is empty. No rank contributed a
		// candidate and every rank sees the same empty pool, so ending
		// the recursion by splitting into singleton worlds stays
		// collective.
		group := me
		if len(sp) > 0 {
			if len(sp) != b-1 {
				return nil, n, fmt.Errorf("%s: selected %d splitters for %d groups", s.name, len(sp), b)
			}
			starts := make([]int, b+1)
			for rank := p - 1; rank >= 0; rank-- {
				starts[rank*b/p] = rank
			}
			starts[b] = p
			if local, err = s.run.Exchange(cur, deliver(partition.Classical(local, sp, s.cmp), starts, me)); err != nil {
				return nil, n, fmt.Errorf("%s: exchange: %w", s.name, err)
			}
			group, reason = me*b/p, "completed"
		} else if n == 0 {
			reason = "empty"
		}
		s.run.Phase(metrics.PhaseOther)
		if cur, err = cur.Split(group, me); err != nil {
			return nil, n, fmt.Errorf("%s: group split: %w", s.name, err)
		}
	}
	return s.run.Done(reason), n, nil
}

// equalStrides cuts a sorted candidate pool at b-1 equal strides — the
// one-shot splitter pick of regular sampling.
func equalStrides[T any](pool []T, b int) []T {
	sp := make([]T, 0, b-1)
	for i := 1; i < b && len(pool) > 0; i++ {
		sp = append(sp, pool[max(i*len(pool)/b-1, 0)])
	}
	return sp
}
