package core

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/partition"
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
func ExchangeSorted[T any](wc *comm.Comm, work []T, bounds []int, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	p := wc.Size()
	if len(bounds) != p+1 {
		return nil, fmt.Errorf("core: %d partition bounds for %d processes", len(bounds), p)
	}
	if err := partition.Validate(bounds, len(work)); err != nil {
		return nil, fmt.Errorf("core: exchange partition: %w", err)
	}
	if p == 1 {
		return work, nil
	}
	// Adopt the caller's input reservation into the per-call ledger so
	// the staging window, the receive buffer and the spill tier account
	// exactly as they do under core.Sort. The shared tail settles it:
	// on success the ledger — now the output's bytes — transfers to the
	// caller instead of being returned.
	acct := &memAcct{g: opt.Mem, held: int64(len(work)) * int64(cd.Size())}
	ok := false
	defer func() {
		if !ok {
			acct.releaseAll()
		}
	}()
	out, _, err := exchangeAndOrder(wc, wc.Rank(), work, bounds, cd, cmp, opt, opt.timer(), acct)
	ok = err == nil
	return out, err
}
