package algo

import (
	"context"
	"fmt"
	"slices"

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
		sp, st, err := histogramSplitters(c, data, c.Size()-1, hssRefine, cd, cmp)
		if err == nil {
			opt.tracer().Emit(c.Rank(), "hss.splitters", map[string]any{
				"rounds": st.rounds, "candidates": st.candidates,
				"resolved": st.resolved, "splitters": c.Size() - 1, "tolerance": st.tol,
			})
		}
		return sp, err
	})
}

// refine parameterises histogramSplitters: seed and probe are the
// RegularSample k of the seed pool and of each unresolved cut's bracket
// probe, rounds caps the histogram rounds, and a cut is resolved within
// eps·N/(nsplit+1) of its target rank (at least 1), or exactly when eps
// is 0.
type refine struct {
	seed, probe, rounds int
	eps                 float64
}

// hssRefine seeds with 8 regular samples per rank — independent of p,
// unlike PSRS's p samples per rank — and stops within 5 % of a bucket.
var hssRefine = refine{seed: 8, probe: 4, rounds: 8, eps: 0.05}

// splitStats summarises one splitter selection for the trace.
type splitStats struct {
	rounds     int
	candidates int
	resolved   int
	tol        int64
}

// histogramSplitters is the histogram splitter selection HSS and
// HykSort share: nsplit splitters aiming at equal global ranks, refined
// round by round by probing only the bracket between the neighbours of
// each unresolved cut's best candidate — the only interval a better
// splitter can hide in, and the sample-volume saving that is HSS's
// contribution over one-shot sampling. With heavily duplicated keys no
// candidate separates records sharing a value, so several splitters
// collapse onto one value — the load-imbalance failure mode the paper
// measures. All decisions derive from state every rank holds alike, so
// every rank runs the same number of collectives. The pool holds each
// value once, so the histogram it sums is as long as the number of
// distinct candidates, and a round that finds no new value ends the
// refinement.
func histogramSplitters[T any](c *comm.Comm, sorted []T, nsplit int, rf refine, cd codec.Codec[T], cmp func(a, b T) int) ([]T, splitStats, error) {
	var st splitStats
	if nsplit <= 0 {
		return nil, st, nil
	}
	total, err := c.AllreduceInt64(int64(len(sorted)), func(a, b int64) int64 { return a + b })
	if err != nil || total == 0 {
		return nil, st, err
	}
	targets := make([]int64, nsplit)
	for i := range targets {
		targets[i] = int64(i+1) * total / int64(nsplit+1)
	}
	if rf.eps > 0 {
		st.tol = max(int64(rf.eps*float64(total)/float64(nsplit+1)), 1)
	}
	pool, err := shareCandidates(c, pivots.RegularSample(sorted, rf.seed), cd, cmp)
	if err != nil {
		return nil, st, err
	}
	pool = distinct(pool, cmp)

	chosen := make([]T, nsplit)
	for round := 0; round < rf.rounds && len(pool) > 0; round++ {
		st.rounds = round + 1
		cdf, err := globalCDF(c, sorted, pool, cmp)
		if err != nil {
			return nil, st, err
		}
		// Adopt, per cut, the candidate whose global rank is closest.
		// The pool only grows, so a resolved cut stays resolved.
		st.resolved = 0
		var probes []T
		for ti, tgt := range targets {
			best, bestDist := 0, int64(1)<<62
			for ci, rank := range cdf {
				if d := max(rank-tgt, tgt-rank); d < bestDist {
					best, bestDist = ci, d
				}
			}
			chosen[ti] = pool[best]
			if bestDist <= st.tol {
				st.resolved++
				continue
			}
			lo, hi := 0, len(sorted)
			if best > 0 {
				lo = partition.LowerBound(sorted, pool[best-1], cmp)
			}
			if best < len(pool)-1 {
				hi = partition.UpperBound(sorted, pool[best+1], cmp)
			}
			probes = append(probes, pivots.RegularSample(sorted[lo:hi], rf.probe)...)
		}
		if st.resolved == nsplit || round == rf.rounds-1 {
			break
		}
		// Always enter the collective: whether refinement found local
		// probes differs per rank, and control flow around collectives
		// must not.
		extra, err := shareCandidates(c, distinct(probes, cmp), cd, cmp)
		if err != nil {
			return nil, st, err
		}
		grown := distinct(append(pool, extra...), cmp)
		if len(grown) == len(pool) {
			break // globally stuck: no rank found a new value (duplicates)
		}
		pool = grown
	}
	st.candidates = len(pool)
	psort.Sort(chosen, cmp)
	return chosen, st, nil
}

// shareCandidates all-gathers each rank's candidate values and returns
// the sorted union (with duplicates preserved: auto's duplicate profile
// counts them).
func shareCandidates[T any](c *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	parts, err := c.Allgather(codec.EncodeSlice(cd, nil, local))
	if err != nil {
		return nil, err
	}
	var pool []T
	for r, buf := range parts {
		if pool, err = codec.DecodeAppend(cd, pool, buf); err != nil {
			return nil, fmt.Errorf("candidates from rank %d: %w", r, err)
		}
	}
	psort.Sort(pool, cmp)
	return pool, nil
}

// distinct sorts vals and drops all but the first of each run of equal
// values.
func distinct[T any](vals []T, cmp func(a, b T) int) []T {
	psort.Sort(vals, cmp)
	return slices.CompactFunc(vals, func(a, b T) bool { return cmp(a, b) == 0 })
}

// globalCDF returns, for each candidate, the number of records globally
// <= the candidate (the histogram step: local binary searches summed by
// one vector allreduce).
func globalCDF[T any](c *comm.Comm, sorted, candidates []T, cmp func(a, b T) int) ([]int64, error) {
	local := make([]int64, len(candidates))
	for i, cand := range candidates {
		local[i] = int64(partition.UpperBound(sorted, cand, cmp))
	}
	return c.AllreduceInt64s(local, func(a, b int64) int64 { return a + b })
}
