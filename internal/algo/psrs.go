package algo

import (
	"context"
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
)

// psrsDriver implements classic Parallel Sorting by Regular Sampling
// (Li, Lu, Schaeffer, Shillington, Wong, Shi — Parallel Computing
// 1993), the algorithm whose load-balance analysis (the O(2N/p) bound
// without duplicates, degrading linearly with skew) the paper builds
// on. It is the "classical PSS algorithm" of the paper's introduction:
// local sort, regular sampling, p-1 global pivots, upper_bound
// partition (duplicates all land on one rank), one all-to-all, k-way
// merge. Not stable, not skew-aware — by design.
type psrsDriver[T any] struct{}

func (psrsDriver[T]) Sort(ctx context.Context, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	// The classic formulation is one synchronous all-to-all followed by
	// a k-way merge.
	opt.Core.TauO = 0
	s, data, err := begin(ctx, NamePSRS, c, data, cd, cmp, opt)
	if err != nil {
		return nil, err
	}
	defer s.run.Close()
	return s.oneShot(data, func() ([]T, error) { return psrsPivots(c, data, cd, cmp) })
}

// psrsPivots is the classic selection: every rank's p regular samples
// are gathered on rank 0, which sorts the pool, cuts it at equal
// strides and broadcasts the p-1 pivots. An empty result means an empty
// dataset.
func psrsPivots[T any](c *comm.Comm, sorted []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	p := c.Size()
	parts, err := c.Gather(0, codec.EncodeSlice(cd, nil, pivots.RegularSample(sorted, p)))
	if err != nil {
		return nil, fmt.Errorf("sample gather: %w", err)
	}
	var pgBuf []byte
	if c.Rank() == 0 {
		var pool []T
		for r, buf := range parts {
			recs, err := codec.DecodeSlice(cd, buf)
			if err != nil {
				return nil, fmt.Errorf("samples from rank %d: %w", r, err)
			}
			pool = append(pool, recs...)
		}
		psort.Sort(pool, cmp)
		pgBuf = codec.EncodeSlice(cd, nil, equalStrides(pool, p))
	}
	if pgBuf, err = c.Bcast(0, pgBuf); err != nil {
		return nil, fmt.Errorf("pivot broadcast: %w", err)
	}
	return codec.DecodeSlice(cd, pgBuf)
}
