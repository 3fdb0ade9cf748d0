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

// network runs the block-level bitonic network over local (which it
// may modify) and returns this rank's block of the globally sorted
// array. Its preconditions — the communicator size is a power of two
// and every rank holds len(local) elements — are DistributedSort's to
// check.
func network[T any](c *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	psort.Sort(local, cmp)
	p := c.Size()
	if p == 1 || len(local) == 0 {
		return local, nil
	}
	rank := c.Rank()
	var err error
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
	m := len(local)
	merged := make([]T, m+len(theirs))
	psort.MergeInto(merged, local, theirs, cmp)
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

// DistributedSort sorts a block-distributed array: rank r contributes
// local (which it may modify) and receives the r-th block of the
// globally sorted array, of local's length. The block sizes are
// all-gathered once and returned, indexed by rank; every rank decides
// from that vector alone, so all take the same path: the bitonic
// network when p is a power of two and the blocks are equal, GatherSort
// otherwise.
func DistributedSort[T any](c *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, []int64, error) {
	sizes, err := c.AllgatherInt64(int64(len(local)))
	if err != nil {
		return nil, nil, fmt.Errorf("bitonic: size exchange: %w", err)
	}
	var sorted []T
	if networkFits(sizes) {
		sorted, err = network(c, local, cd, cmp)
	} else {
		sorted, err = GatherSort(c, local, cd, cmp)
	}
	if err != nil {
		return nil, nil, err
	}
	return sorted, sizes, nil
}

// networkFits reports whether the bitonic network can sort blocks of
// the given sizes, one per rank: the rank count is a power of two and
// every block has the same size.
func networkFits(sizes []int64) bool {
	p := len(sizes)
	if p&(p-1) != 0 {
		return false
	}
	for _, s := range sizes {
		if s != sizes[0] {
			return false
		}
	}
	return true
}
