// Package pivots implements the pivot-selection machinery: regular
// (equal-stripe) sampling and the distributed selection of global pivots
// (§2.4 of the paper), plus the histogram-based splitter selection that
// HykSort uses — included both as part of the HykSort baseline and for
// the partition-method comparison of Fig. 6b.
package pivots

import (
	"fmt"

	"sdssort/internal/bitonic"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/partition"
	"sdssort/internal/psort"
)

// RegularSample returns up to k-1 local pivots from sorted data at
// stride ⌊n/k⌋ (line 8 of the SDS-Sort listing). Because the data is
// sorted first, each pivot represents at most 2n/k² of the local value
// distribution, the property Theorem 1 leans on.
func RegularSample[T any](sorted []T, k int) []T {
	n := len(sorted)
	if n == 0 || k <= 1 {
		return nil
	}
	stride := n / k
	if stride < 1 {
		stride = 1
	}
	pivots := make([]T, 0, k-1)
	for i := 1; i < k; i++ {
		idx := i * stride
		if idx >= n {
			// Fewer records than processes: repeat the last record
			// rather than under-sampling. Duplicated pivots are fine —
			// the skew-aware partition is built for them — whereas a
			// short (or empty) sample would starve global pivot
			// selection and leave the data unexchanged.
			idx = n - 1
		}
		pivots = append(pivots, sorted[idx])
	}
	return pivots
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

	// Selection indices: (i+1)·total/p - 1, clamped — the equal-stripe
	// choice over the pooled pivots.
	type sel struct {
		idx int64
		val T
	}
	var mine []sel
	for i := int64(0); i < int64(p-1); i++ {
		idx := (i+1)*total/int64(p) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= offset && idx < offset+int64(len(sorted)) {
			mine = append(mine, sel{idx: i, val: sorted[idx-offset]})
		}
	}
	// Ship (selection slot, value) pairs.
	buf := comm.EncodeInt64s(func() []int64 {
		out := make([]int64, len(mine))
		for i, s := range mine {
			out[i] = s.idx
		}
		return out
	}())
	var vals []T
	for _, s := range mine {
		vals = append(vals, s.val)
	}
	payload := append(comm.EncodeInt64s([]int64{int64(len(mine))}), buf...)
	payload = codec.EncodeSlice(cd, payload, vals)

	parts, err := c.Allgather(payload)
	if err != nil {
		return nil, fmt.Errorf("pivots: selection gather: %w", err)
	}
	pg := make([]T, p-1)
	seen := make([]bool, p-1)
	for r, part := range parts {
		if len(part) < 8 {
			return nil, fmt.Errorf("pivots: short selection payload from rank %d", r)
		}
		hdr, err := comm.DecodeInt64s(part[:8])
		if err != nil {
			return nil, err
		}
		cnt := int(hdr[0])
		idxEnd := 8 + 8*cnt
		if len(part) < idxEnd {
			return nil, fmt.Errorf("pivots: truncated selection payload from rank %d", r)
		}
		idxs, err := comm.DecodeInt64s(part[8:idxEnd])
		if err != nil {
			return nil, err
		}
		recs, err := codec.DecodeSlice(cd, part[idxEnd:])
		if err != nil {
			return nil, err
		}
		if len(recs) != cnt {
			return nil, fmt.Errorf("pivots: rank %d sent %d indices but %d values", r, cnt, len(recs))
		}
		for i, slot := range idxs {
			if slot < 0 || slot >= int64(p-1) {
				return nil, fmt.Errorf("pivots: selection slot %d out of range", slot)
			}
			pg[slot] = recs[i]
			seen[slot] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("pivots: selection slot %d unfilled", i)
		}
	}
	return pg, nil
}

// HistogramSplitters is the splitter selection HykSort uses: iterative
// histogram refinement over a shared candidate pool. It returns nsplit
// splitter values aiming at equal global ranks. With heavily duplicated
// keys the refinement cannot separate records sharing a value, so
// several returned splitters collapse onto one value — the load-
// imbalance failure mode the paper measures.
func HistogramSplitters[T any](c *comm.Comm, sorted []T, nsplit, rounds int, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	if nsplit <= 0 {
		return nil, nil
	}
	total, err := c.AllreduceInt64(int64(len(sorted)), func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return make([]T, 0), nil
	}
	targets := make([]int64, nsplit)
	for i := range targets {
		targets[i] = int64(i+1) * total / int64(nsplit+1)
	}

	sampleCount := 4 * (nsplit + 1)
	if sampleCount < 32 {
		sampleCount = 32
	}
	candidates, err := ShareCandidates(c, RegularSample(sorted, sampleCount), cd, cmp)
	if err != nil {
		return nil, err
	}
	if rounds < 1 {
		rounds = 1
	}

	chosen := make([]T, nsplit)
	for round := 0; round < rounds; round++ {
		if len(candidates) == 0 {
			break
		}
		cdf, err := GlobalCDF(c, sorted, candidates, cmp)
		if err != nil {
			return nil, err
		}
		// Pick, per target, the candidate whose global rank is
		// closest; remember the bracketing candidates for refinement.
		var refine []T
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
			chosen[ti] = candidates[best]
			if round < rounds-1 && bestDist > 0 {
				// Sample fresh local candidates between the
				// neighbours of the best candidate.
				lo, hi := 0, len(sorted)
				if best > 0 {
					lo = partition.LowerBound(sorted, candidates[best-1], cmp)
				}
				if best < len(candidates)-1 {
					hi = partition.UpperBound(sorted, candidates[best+1], cmp)
				}
				refine = append(refine, RegularSample(sorted[lo:hi], 8)...)
			}
		}
		if round == rounds-1 {
			break
		}
		// Always enter the collective: whether refinement found new
		// local candidates differs per rank, and control flow around
		// collectives must not.
		extra, err := ShareCandidates(c, refine, cd, cmp)
		if err != nil {
			return nil, err
		}
		if len(extra) == 0 {
			break // globally consistent: the gather was empty for all
		}
		candidates = append(candidates, extra...)
		// Keep the pool sorted for the bracket lookups.
		sortValues(candidates, cmp)
	}
	sortValues(chosen, cmp)
	return chosen, nil
}

// ShareCandidates all-gathers each rank's candidate values and returns
// the sorted union (with duplicates preserved).
func ShareCandidates[T any](c *comm.Comm, local []T, cd codec.Codec[T], cmp func(a, b T) int) ([]T, error) {
	parts, err := c.Allgather(codec.EncodeSlice(cd, nil, local))
	if err != nil {
		return nil, err
	}
	var pool []T
	for r, buf := range parts {
		recs, err := codec.DecodeSlice(cd, buf)
		if err != nil {
			return nil, fmt.Errorf("pivots: candidates from rank %d: %w", r, err)
		}
		pool = append(pool, recs...)
	}
	sortValues(pool, cmp)
	return pool, nil
}

// GlobalCDF returns, for each candidate, the number of records globally
// <= the candidate (the histogram step: local binary searches plus one
// vector all-reduce).
func GlobalCDF[T any](c *comm.Comm, sorted, candidates []T, cmp func(a, b T) int) ([]int64, error) {
	local := make([]int64, len(candidates))
	for i, cand := range candidates {
		local[i] = int64(partition.UpperBound(sorted, cand, cmp))
	}
	parts, err := c.Allgather(comm.EncodeInt64s(local))
	if err != nil {
		return nil, err
	}
	global := make([]int64, len(candidates))
	for r, buf := range parts {
		vals, err := comm.DecodeInt64s(buf)
		if err != nil || len(vals) != len(candidates) {
			return nil, fmt.Errorf("pivots: bad histogram from rank %d", r)
		}
		for i, v := range vals {
			global[i] += v
		}
	}
	return global, nil
}

func sortValues[T any](vals []T, cmp func(a, b T) int) {
	psort.Sort(vals, cmp)
}
