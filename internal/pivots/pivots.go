// Package pivots implements the pivot-selection machinery of §2.4:
// regular (equal-stripe) sampling, exactly spaced over each rank's
// sorted block, and the distributed selection of global pivots.
package pivots

import (
	"fmt"

	"sdssort/internal/bitonic"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/partition"
)

// RegularSample returns k-1 local pivots from sorted data, the records
// at i·n/k for 0 < i < k (line 8 of the SDS-Sort listing): spaced over
// the whole block, each represents at most 2n/k² of the local value
// distribution, the property Theorem 1 leans on. With n < k a record is
// picked more than once, which the skew-aware partition handles like
// any duplicated pivot. They are the pivots of partition.NewStripe,
// which indexes the block's boundary search by them.
func RegularSample[T any](sorted []T, k int) []T {
	return partition.NewStripe(sorted, k, nil).Pivots
}

// SelectGlobal chooses the p-1 global pivots from every rank's local
// pivots without gathering them all on one process: the pooled local
// pivots are sorted in place across the ranks (bitonic network when the
// preconditions hold, gather-sort fallback otherwise), each rank
// contributes the pool elements landing on the equal-stride selection
// indices, and the selections are all-gathered. Every rank returns the
// identical global pivot vector, sorted, possibly containing duplicates
// — which is exactly what the skew-aware partition wants to know about.
func SelectGlobal[T any](c *comm.Comm, localPivots []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	p := c.Size()
	if p == 1 {
		return nil, nil
	}
	sorted, sizes, err := bitonic.DistributedSort(c, localPivots, cd, cmp)
	if err != nil {
		return nil, fmt.Errorf("pivots: distributed sort: %w", err)
	}
	// Global offset of my block and the pool size.
	var offset, total int64
	for r, s := range sizes {
		if r < c.Rank() {
			offset += s
		}
		total += s
	}
	if total == 0 {
		return nil, nil
	}

	// Selection indices: i·total/p - 1, clamped — the equal-stripe
	// choice over the pooled pivots. They ascend with i and the blocks
	// with rank, so each rank picks consecutive slots and the picks,
	// gathered in rank order, are the pivot vector.
	var picks []T
	for i := int64(1); i < int64(p); i++ {
		if idx := max(i*total/int64(p)-1, 0) - offset; idx >= 0 && idx < int64(len(sorted)) {
			picks = append(picks, sorted[idx])
		}
	}
	parts, err := c.Allgather(codec.EncodeSlice(cd, nil, picks))
	if err != nil {
		return nil, fmt.Errorf("pivots: selection gather: %w", err)
	}
	pg := make([]T, 0, p-1)
	for r, part := range parts {
		if pg, err = codec.DecodeAppend(cd, pg, part); err != nil {
			return nil, fmt.Errorf("pivots: selection from rank %d: %w", r, err)
		}
	}
	if len(pg) != p-1 {
		return nil, fmt.Errorf("pivots: gathered %d pivots, want %d", len(pg), p-1)
	}
	return pg, nil
}
