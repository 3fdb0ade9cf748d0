package core

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
)

// Baseline is one call of a baseline driver (hss, ams, hyksort, psrs):
// core.Sort's run with the driver choosing the splitters and the cuts.
// One run spans the whole call, so the memory ledger, the clock, the
// tracer and the root span carry across every exchange the driver makes,
// and events and spans are attributed to the caller's rank whatever
// communicator an exchange runs over. Owned by the calling rank's
// goroutine.
type Baseline[T any] struct{ r *run[T] }

// OpenBaseline starts a driver call on c: it validates opt, opens the
// "sort" root span with detail, reserves the
// input against opt.Mem and sorts data under a localsort span —
// core.Sort's local sort, run gate and radix dispatch included — into
// the block it returns, which may occupy data's storage. On success the
// caller owns the Baseline and must Close it; on error nothing is left
// to release. Node merging (τm) and checkpointing stay core.Sort's.
func OpenBaseline[T any](c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options, detail map[string]any) (*Baseline[T], []T, error) {
	r, err := newRun(c, cd, cmp, opt)
	if err != nil {
		return nil, nil, err
	}
	r.start(detail)
	r.work = data
	if err := r.acct.reserve(int64(len(data)) * r.recSize); err != nil {
		r.close()
		return nil, nil, fmt.Errorf("core: input buffer: %w", err)
	}
	if err := r.runPhases([]phase{{name: "localsort", clock: metrics.PhaseLocalSort,
		begin: map[string]any{"records": len(data)}, body: r.sortLocal}}); err != nil {
		r.close()
		return nil, nil, err
	}
	return &Baseline[T]{r}, r.work, nil
}

// Phase charges the wall time from here on to p.
func (b *Baseline[T]) Phase(p metrics.Phase) { b.r.tm.Start(p) }

// Exchange is one data exchange over wc, a communicator the caller's
// rank belongs to. The working set — the block OpenBaseline returned, then
// what the last Exchange returned — goes out cut by bounds (len
// wc.Size()+1) into one slice per rank of wc, and this rank's sorted block
// comes back through core.Sort's count exchange, receive budget, spill
// vote, τo and τs. The block becomes the working set, and the ledger holds
// it instead of what was sent.
func (b *Baseline[T]) Exchange(wc *comm.Comm, bounds []int) ([]T, error) {
	r := b.r
	r.wc = wc
	if err := r.setBounds(bounds); err != nil {
		return nil, fmt.Errorf("core: exchange partition: %w", err)
	}
	r.tm.Start(metrics.PhaseExchange)
	if _, err := r.exchangeAndOrder(); err != nil {
		return nil, err
	}
	return r.work, nil
}

// Done ends a successful call by closing the root span — reason is
// completed, single (the caller's rank was alone) or empty (no records
// anywhere) — and returns the working set, the rank's block of the
// output.
func (b *Baseline[T]) Done(reason string) []T {
	b.r.exit = reason
	b.r.done(len(b.r.work))
	return b.r.work
}

// Close is deferred by the caller: what the ledger still holds goes back
// to opt.Mem, the clock stops, and unless Done got there first the root
// span closes as failed.
func (b *Baseline[T]) Close() { b.r.close() }
