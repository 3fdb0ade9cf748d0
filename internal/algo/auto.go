package algo

import (
	"context"
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/pivots"
)

// autoSamplePerRank bounds the profiling sample: the profile must stay
// far cheaper than any sort it steers.
const autoSamplePerRank = 64

// autoDriver extends the paper's τm/τo/τs adaptivity one level up, to
// the algorithm itself: it profiles a cheap all-gathered sample of the
// input (duplicate mass, dataset size, spill pressure) and dispatches
// to the driver the decision rule in choose predicts will win. The
// resolved driver records itself in Options.Selection; the decision and
// its inputs are traced as "algo.selected".
type autoDriver[T any] struct{}

func (autoDriver[T]) Sort(ctx context.Context, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr, err := profileSample(c, data, cd, cmp, opt)
	if err != nil {
		return nil, fmt.Errorf("algo: auto profile: %w", err)
	}
	choice, reason := choose(pr, c.Size(), int(cd.Size()), opt)
	opt.tracer().Emit(c.Rank(), "algo.selected", map[string]any{
		"algo": choice, "reason": reason,
		"dup_ratio": pr.dupRatio, "distinct": pr.distinct,
		"sample": pr.sample, "records": pr.total,
		"p": c.Size(), "rec_size": int(cd.Size()),
		"spill_pressure": pr.pressure,
	})
	d, err := New[T](choice)
	if err != nil {
		return nil, err
	}
	return d.Sort(ctx, c, data, cd, cmp, opt)
}

// profile is what the decision rule sees. Every field derives from
// all-gathered or all-reduced state, so the choice it feeds is
// identical on every rank — divergent choices would deadlock the
// collectives of the dispatched driver.
type profile struct {
	sample   int     // pooled sample size
	dupRatio float64 // heaviest key's share of the pooled sample
	distinct int     // distinct values in the pooled sample
	total    int64   // global record count
	pressure bool    // some rank is short on budget (or spill is forced)
}

func profileSample[T any](c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (profile, error) {
	var pr profile
	// Regular-sample the (still unsorted) input, or take all of a short
	// one, and pool across ranks.
	n := len(data)
	local := data
	if n > autoSamplePerRank {
		local = pivots.RegularSample(data, autoSamplePerRank+1)
	}
	pool, err := shareCandidates(c, local, cd, cmp)
	if err != nil {
		return pr, err
	}
	pr.sample = len(pool)
	// The longest equal run of the sorted pool estimates the heaviest
	// key's mass — the quantity that decides whether a duplicate-
	// oblivious partition collapses.
	run, longest := 1, 0
	for i := 1; i < len(pool); i++ {
		if cmp(pool[i-1], pool[i]) == 0 {
			run++
			continue
		}
		if run > longest {
			longest = run
		}
		pr.distinct++
		run = 1
	}
	if len(pool) > 0 {
		if run > longest {
			longest = run
		}
		pr.distinct++
		pr.dupRatio = float64(longest) / float64(len(pool))
	}
	pr.total, err = c.AllreduceInt64(int64(n), func(a, b int64) int64 { return a + b })
	if err != nil {
		return pr, err
	}

	// Spill pressure is voted collectively: divergent local budgets
	// must not send ranks down different drivers.
	want := int64(0)
	if sp := opt.Core.Spill; sp != nil && sp.Force {
		want = 1
	}
	if g := opt.Core.Mem; g.Budget() > 0 {
		// The resident exchange peaks near input + receive (+ staging):
		// under ~2.5× the local bytes of headroom, sds — spill-native
		// and skew-tolerant — is the only driver that degrades
		// gracefully instead of dying of OOM.
		if g.Budget()-g.Used() < 5*int64(n)*int64(cd.Size())/2 {
			want = 1
		}
	}
	vote, err := c.AllreduceInt64(want, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
	if err != nil {
		return pr, err
	}
	pr.pressure = vote > 0
	return pr, nil
}

// dupThreshold is the duplicate-ratio cut above which the duplicate-
// oblivious drivers are avoided: 1% of the pooled sample, or two sample
// hits when the pool is small enough that one repeated value is noise.
func dupThreshold(sample int) float64 {
	thr := 0.01
	if sample > 0 {
		if t := 2.0 / float64(sample); t > thr {
			thr = t
		}
	}
	return thr
}

// choose is the documented decision rule (docs/INTERNALS.md):
//
//  1. stable or checkpointed runs → sds: the only driver with the
//     capabilities.
//  2. spill pressure → sds: spill-native and skew-tolerant.
//  3. duplicate-heavy sample → sds: the duplicate-oblivious partitions
//     (hss, ams, hyksort, psrs) concentrate equal keys on one rank.
//  4. large worlds with narrow records → ams: O(log_k p) exchange
//     levels beat one p-wide all-to-all of small messages.
//  5. otherwise → hss: near-exact cuts from the smallest sample volume.
func choose(pr profile, p, recSize int, opt Options) (name, reason string) {
	if opt.Core.Stable || opt.Core.Checkpoint != nil {
		return NameSDS, "capabilities"
	}
	if pr.pressure {
		return NameSDS, "spill-pressure"
	}
	if pr.sample > 0 && pr.dupRatio >= dupThreshold(pr.sample) {
		return NameSDS, "duplicates"
	}
	if p >= 64 && recSize <= 16 {
		return NameAMS, "scale"
	}
	return NameHSS, "uniform"
}
