package core

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
)

// ExchangeSorted is the shared exchange-and-order stage behind every
// algorithm driver: given this rank's locally sorted working set and a
// partition of it into p destination slices (bounds, len p+1), it runs
// the count exchange, budgets the receive side against opt.Mem, diverts
// through the out-of-core spill tier when configured and necessary, and
// returns this rank's sorted block — via the staged/zero-copy collective
// and the merge-versus-resort (τs) and overlap (τo) adaptivity the
// SDS-Sort core uses. Competitor drivers (hyksort, psrs, hss, ams) call
// it instead of carrying private exchange paths, so they inherit memory
// accounting, spill, staging and the exchange telemetry for free.
//
// Memory contract: the caller has already reserved len(work)·recSize
// against opt.Mem (its input reservation). On success that reservation
// has been settled — the caller then holds exactly len(out)·recSize and
// must release it when done with the output. On error every byte,
// including the adopted input reservation, has been returned to the
// gauge. opt.Checkpoint is ignored: phase snapshots remain a core.Sort
// concern.
func ExchangeSorted[T any](wc *comm.Comm, work []T, bounds []int, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (out []T, err error) {
	// Adopt the caller's input reservation into the per-call ledger
	// before anything can fail — invalid options and a bad partition
	// included — so the staging window, the receive buffer and the spill
	// tier account exactly as they do under core.Sort, and failure always
	// means settled. On success the ledger — now the output's bytes —
	// transfers to the caller instead of being returned.
	held := int64(len(work)) * int64(cd.Size())
	r, err := newRun(wc, cd, cmp, opt)
	if err != nil {
		opt.Mem.Release(held)
		return nil, err
	}
	r.work, r.acct.held = work, held
	defer func() {
		if err != nil {
			r.acct.releaseAll()
		}
	}()
	if err := r.setBounds(bounds); err != nil {
		return nil, fmt.Errorf("core: exchange partition: %w", err)
	}
	if wc.Size() == 1 {
		return work, nil
	}
	r.tm.Start(metrics.PhaseExchange)
	if _, err := r.exchangeAndOrder(); err != nil {
		return nil, err
	}
	return r.work, nil
}
