package algo

import (
	"context"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/partition"
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
)

// hssDriver implements Histogram Sort with Sampling (Harsh, Kalé,
// Solomonik — arXiv 1803.01237): splitter selection by iterative
// histogramming seeded with a sample far smaller than one-shot regular
// sampling needs, refined only where the measured cut is still outside
// a rank tolerance. One exchange follows, through the shared
// core.Baseline. Like HykSort's selection it is duplicate-
// oblivious: on heavy duplicates the refinement stalls (no candidate
// can separate equal keys) and the partition concentrates — the auto
// driver routes such inputs to sds instead.
type hssDriver[T any] struct{}

func (hssDriver[T]) Sort(ctx context.Context, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	s, data, err := begin(ctx, NameHSS, c, data, cd, cmp, opt)
	if err != nil {
		return nil, err
	}
	defer s.run.Close()
	return s.oneShot(data, func() ([]T, error) {
		sp, st, err := hssSplitters(c, data, c.Size()-1, cd, cmp)
		if err == nil {
			opt.tracer().Emit(c.Rank(), "hss.splitters", map[string]any{
				"rounds": st.rounds, "candidates": st.candidates,
				"resolved": st.resolved, "splitters": c.Size() - 1, "tolerance": st.tol,
			})
		}
		return sp, err
	})
}

// hssRounds caps splitter refinement, and hssEpsilon is the tolerance a
// cut's global rank must reach: within hssEpsilon·N/p of the ideal.
const (
	hssRounds  = 8
	hssEpsilon = 0.05
)

// hssStats summarises one splitter selection for the trace.
type hssStats struct {
	rounds     int
	candidates int
	resolved   int
	tol        int64
}

// hssSplitters refines nsplit splitters, for at most hssRounds rounds,
// until every cut's global rank is within tol = max(1,
// hssEpsilon·N/(nsplit+1)) of ideal, probing only the bracket of each
// unresolved cut — the sample-volume saving that is HSS's contribution
// over one-shot sampling. All decisions derive from all-gathered state,
// so every rank runs the same number of collectives.
func hssSplitters[T any](c *comm.Comm, sorted []T, nsplit int, cd codec.Codec[T], cmp func(a, b T) int) ([]T, hssStats, error) {
	var st hssStats
	if nsplit <= 0 {
		return nil, st, nil
	}
	total, err := c.AllreduceInt64(int64(len(sorted)), func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, st, err
	}
	if total == 0 {
		return nil, st, nil
	}
	targets := make([]int64, nsplit)
	for i := range targets {
		targets[i] = int64(i+1) * total / int64(nsplit+1)
	}
	tol := int64(hssEpsilon * float64(total) / float64(nsplit+1))
	if tol < 1 {
		tol = 1
	}
	st.tol = tol

	// Seed pool: 8 regular samples per rank — independent of p, unlike
	// PSRS's p samples per rank.
	pool, err := pivots.ShareCandidates(c, pivots.RegularSample(sorted, 8), cd, cmp)
	if err != nil {
		return nil, st, err
	}

	chosen := make([]T, nsplit)
	resolved := make([]bool, nsplit)
	for round := 0; round < hssRounds; round++ {
		if len(pool) == 0 {
			break
		}
		st.rounds = round + 1
		cdf, err := pivots.GlobalCDF(c, sorted, pool, cmp)
		if err != nil {
			return nil, st, err
		}
		// Adopt, per cut, the candidate whose global rank is closest;
		// within tolerance the cut is final. The probe for a cut still
		// off target covers the bracket between the best candidate's
		// neighbours — the only interval a better splitter can hide in.
		allDone := true
		var probes []T
		for ti, tgt := range targets {
			best, bestDist := 0, int64(1)<<62
			for ci, rank := range cdf {
				d := rank - tgt
				if d < 0 {
					d = -d
				}
				if d < bestDist {
					best, bestDist = ci, d
				}
			}
			chosen[ti] = pool[best]
			if bestDist <= tol {
				resolved[ti] = true
			}
			if resolved[ti] {
				continue
			}
			allDone = false
			lo, hi := 0, len(sorted)
			if best > 0 {
				lo = partition.LowerBound(sorted, pool[best-1], cmp)
			}
			if best < len(pool)-1 {
				hi = partition.UpperBound(sorted, pool[best+1], cmp)
			}
			probes = append(probes, pivots.RegularSample(sorted[lo:hi], 4)...)
		}
		if allDone || round == hssRounds-1 {
			break
		}
		// Always enter the collective: whether refinement found local
		// probes differs per rank, and control flow around collectives
		// must not.
		extra, err := pivots.ShareCandidates(c, probes, cd, cmp)
		if err != nil {
			return nil, st, err
		}
		if len(extra) == 0 {
			break // globally stuck: no rank can refine further (duplicates)
		}
		pool = append(pool, extra...)
		psort.Sort(pool, cmp)
	}
	st.candidates = len(pool)
	for _, r := range resolved {
		if r {
			st.resolved++
		}
	}
	psort.Sort(chosen, cmp)
	return chosen, st, nil
}
