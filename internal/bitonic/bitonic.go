// Package bitonic implements a distributed bitonic sort over a
// communicator: the block-level bitonic network with compare-split
// exchanges. SDS-Sort uses it to order the p(p-1) local pivots during
// global pivot selection without gathering them onto one rank (§2.4),
// and the experiment harness runs it as a related-work baseline.
package bitonic

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/psort"
)

// Tag space: the bitonic network runs O(log^2 p) sequential rounds; all
// rounds reuse one user tag because messages between a fixed pair are
// FIFO and each rank exchanges exactly one message per round.
const exchangeTag = 1 << 18

// Sort sorts a block-distributed array: rank r contributes local (which
// it may modify) and receives the r-th block of the globally sorted
// array. Requirements of the bitonic network: the communicator size must
// be a power of two and every rank must hold the same number of
// elements. Callers that cannot guarantee this should use GatherSort.
func Sort[T any](c *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	p := c.Size()
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("bitonic: communicator size %d is not a power of two", p)
	}
	m := len(local)
	sizes, err := c.AllgatherInt64(int64(m))
	if err != nil {
		return nil, fmt.Errorf("bitonic: size exchange: %w", err)
	}
	for r, s := range sizes {
		if int(s) != m {
			return nil, fmt.Errorf("bitonic: rank %d holds %d elements, this rank holds %d", r, s, m)
		}
	}
	psort.Sort(local, cmp)
	if p == 1 || m == 0 {
		return local, nil
	}

	rank := c.Rank()
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			partner := rank ^ j
			ascending := rank&k == 0
			keepLow := (rank < partner) == ascending
			local, err = compareSplit(c, local, partner, keepLow, cd, cmp)
			if err != nil {
				return nil, fmt.Errorf("bitonic: stage k=%d j=%d: %w", k, j, err)
			}
		}
	}
	return local, nil
}

// compareSplit exchanges full blocks with the partner, merges, and keeps
// the low or high half. Both sides keep their blocks sorted ascending,
// which is what makes the block-level network equivalent to element
// bitonic sort.
func compareSplit[T any](c *comm.Comm, local []T, partner int, keepLow bool, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	buf := codec.EncodeSlice(cd, nil, local)
	if err := c.Send(partner, exchangeTag, buf); err != nil {
		return nil, err
	}
	theirBuf, err := c.Recv(partner, exchangeTag)
	if err != nil {
		return nil, err
	}
	theirs, err := codec.DecodeSlice(cd, theirBuf)
	if err != nil {
		return nil, err
	}
	merged := psort.MergeTwo(local, theirs, cmp)
	m := len(local)
	if keepLow {
		return merged[:m], nil
	}
	return merged[len(merged)-m:], nil
}

// GatherSort is the fallback used when the bitonic preconditions do not
// hold (non-power-of-two p or ragged block sizes): gather everything on
// rank 0, sort, and scatter blocks back with the original local sizes.
// This is the "gather local pivots onto a single process" method of
// §2.4, acceptable at moderate p.
func GatherSort[T any](c *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	parts, err := c.Gather(0, codec.EncodeSlice(cd, nil, local))
	if err != nil {
		return nil, fmt.Errorf("bitonic: gather: %w", err)
	}
	p := c.Size()
	var scattered [][]byte
	if c.Rank() == 0 {
		var all []T
		counts := make([]int, p)
		for r, buf := range parts {
			recs, err := codec.DecodeSlice(cd, buf)
			if err != nil {
				return nil, fmt.Errorf("bitonic: decode from %d: %w", r, err)
			}
			counts[r] = len(recs)
			all = append(all, recs...)
		}
		psort.Sort(all, cmp)
		scattered = make([][]byte, p)
		off := 0
		for r := 0; r < p; r++ {
			scattered[r] = codec.EncodeSlice(cd, nil, all[off:off+counts[r]])
			off += counts[r]
		}
	}
	// Scatter: rank 0 sends each block; everyone else receives.
	if c.Rank() == 0 {
		for r := 1; r < p; r++ {
			if err := c.Send(r, exchangeTag, scattered[r]); err != nil {
				return nil, err
			}
		}
		return codec.DecodeSlice(cd, scattered[0])
	}
	buf, err := c.Recv(0, exchangeTag)
	if err != nil {
		return nil, err
	}
	return codec.DecodeSlice(cd, buf)
}

// DistributedSort picks the bitonic network when its preconditions hold
// and falls back to GatherSort otherwise. All ranks make the same
// decision because block sizes are exchanged first. Both paths return
// blocks of the input's length, so the gathered sizes — returned, indexed
// by rank — are also the sorted blocks' sizes.
func DistributedSort[T any](c *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, []int64, error) {
	p := c.Size()
	sizes, err := c.AllgatherInt64(int64(len(local)))
	if err != nil {
		return nil, nil, err
	}
	// Decide from the gathered vector alone so every rank reaches the
	// same verdict.
	uniform := p&(p-1) == 0
	for _, s := range sizes {
		if s != sizes[0] {
			uniform = false
			break
		}
	}
	var sorted []T
	if uniform {
		sorted, err = Sort(c, local, cd, cmp)
	} else {
		sorted, err = GatherSort(c, local, cd, cmp)
	}
	if err != nil {
		return nil, nil, err
	}
	return sorted, sizes, nil
}
