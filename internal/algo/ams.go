package algo

import (
	"context"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/pivots"
)

// defaultAMSArity keeps the recursion genuinely multi-level at the
// scale the experiments run (k=4 gives two levels at p=8); production
// scales would raise it toward the paper's k≈p^(1/levels).
const defaultAMSArity = 4

// amsDriver implements multi-level AMS-sort (Axtmann, Bingmann, Sanders,
// Schulz — Robust Massively Parallel Sorting, arXiv 1606.08766):
// recursive k-way partitioning over comm.Split sub-worlds. Each level
// picks k-1 splitters by one-shot oversampling, slices every bucket
// evenly across its destination group (AMS's data delivery — the slice,
// not the refinement, is what bounds per-rank receive volume), runs the
// level's exchange through the call's core.Baseline and recurses into
// the group (sorter.levels).
type amsDriver[T any] struct{}

func (amsDriver[T]) Sort(ctx context.Context, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	s, data, err := begin(ctx, NameAMS, c, data, cd, cmp, opt)
	if err != nil {
		return nil, err
	}
	defer s.run.Close()
	k := opt.K
	if k < 2 {
		k = defaultAMSArity
	}
	// One-shot oversampling (the AMS selection): 4·k regular samples
	// per rank, pooled and cut at equal strides. Residual imbalance is
	// repaired by the next level, not by refinement rounds.
	pick := func(cur *comm.Comm, local []T, b int) ([]T, error) {
		pool, err := shareCandidates(cur, pivots.RegularSample(local, 4*b), cd, cmp)
		return equalStrides(pool, b), err
	}
	out, levels, err := s.levels(data, k, pick, amsDeliver)
	if err != nil {
		return nil, err
	}
	opt.tracer().Emit(c.Rank(), "ams.levels", map[string]any{"levels": levels, "k": k, "p": c.Size()})
	return out, nil
}

// amsDeliver slices every bucket evenly across its destination group:
// consecutive group members take consecutive equal shares, so the
// per-destination bounds stay ascending over the locally sorted data.
func amsDeliver(buckets, starts []int, _ int) []int {
	b := len(starts) - 1
	db := make([]int, starts[b]+1)
	for j := 0; j < b; j++ {
		ng, size := starts[j+1]-starts[j], buckets[j+1]-buckets[j]
		for m := 0; m < ng; m++ {
			db[starts[j]+m+1] = buckets[j] + (m+1)*size/ng
		}
	}
	return db
}
