package core

import "fmt"

// observeSkew measures one phase's per-rank load geometry over wc:
// every rank contributes its load, the vector is allgathered, and each
// rank records the resulting load-imbalance factor on opt.Skew and
// (wc's rank 0 only, to keep the trace single-voiced) emits a skew.phase
// event. The vector is indexed by wc's ranks, so this rank's place in it
// is wc.Rank(), not the world rank it reports under once τm or a
// baseline level has narrowed wc. A nil opt.Skew makes it free — and
// non-collective, which is why the Skew option must agree across ranks.
func (r *run[T]) observeSkew(phase string, load int64) error {
	if r.opt.Skew == nil {
		return nil
	}
	loads, err := r.wc.AllgatherInt64(load)
	if err != nil {
		return fmt.Errorf("core: %s skew gather: %w", phase, err)
	}
	self := r.wc.Rank()
	o := r.opt.Skew.Observe(phase, loads, self)
	if self == 0 && o.Ranks > 0 {
		r.tr.Emit(r.rank, "skew.phase", map[string]any{
			"phase": phase, "ranks": o.Ranks,
			"max": int64(o.Max), "mean": o.Mean, "max_rank": o.MaxRank,
			"imbalance": o.Imbalance, "stragglers": o.Stragglers,
		})
	}
	return nil
}
