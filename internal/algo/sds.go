package algo

import (
	"context"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
)

// sdsDriver wraps core.Sort, the paper's skew-aware sample sort. The
// full core.Options pass through: stable mode, the τ thresholds,
// checkpointed recovery and the spill tier are all honoured.
type sdsDriver[T any] struct{}

func (sdsDriver[T]) Sort(ctx context.Context, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt.Selection.Selected(NameSDS)
	return core.Sort(c, data, cd, cmp, opt.Core)
}
