package partition

import "fmt"

// PivotRun is a maximal run of equal global pivots: pg[Start:Start+Len]
// all compare equal. Runs with Len >= 2 are what SdssReplicated (Fig. 3)
// detects; the rs processes owning those pivots share the duplicated
// value's records.
type PivotRun struct {
	Start, Len int
}

// Runs scans the sorted global pivot vector once and returns every
// maximal run of length >= 2. All ranks hold identical global pivots,
// so every rank computes the identical run list — this is what lets the
// stable version batch its count exchange into one collective.
func Runs[T any](pg []T, cmp func(a, b T) int) []PivotRun {
	var runs []PivotRun
	i := 0
	for i < len(pg) {
		j := i + 1
		for j < len(pg) && cmp(pg[j], pg[i]) == 0 {
			j++
		}
		if j-i >= 2 {
			runs = append(runs, PivotRun{Start: i, Len: j - i})
		}
		i = j
	}
	return runs
}

// LocalDupCounts returns, for each replicated-pivot run, the number of
// local records equal to that run's pivot value — the cr of Fig. 2 line
// 11. The caller all-gathers these (one collective for all runs) before
// calling Stable.
func LocalDupCounts[T any](data []T, pg []T, runs []PivotRun, loc Locator[T]) []int64 {
	counts := make([]int64, len(runs))
	for k, r := range runs {
		v := pg[r.Start]
		counts[k] = int64(loc.UpperBound(data, v) - loc.LowerBound(data, v))
	}
	return counts
}

// Fast computes the send boundaries of the fast (non-stable) skew-aware
// partition over one rank's sorted data: boundaries[j] is the start of
// the records destined for process j, boundaries[p] == len(data).
// Records equal to a pivot value shared by rs processes are split evenly
// among those rs processes (Fig. 2 line 9 / Fig. 4 left), which is what
// caps every process's load at O(4N/p) regardless of skew (Theorem 1).
//
// Note on the listing: Fig. 2 computes the duplicate span's start as
// upper_bound(ppv), the previous distinct pivot. When values strictly
// between ppv and the duplicated pivot exist, that span also contains
// non-duplicates, and splitting them across processes would break global
// sortedness. We therefore take the span as [lower_bound(v),
// upper_bound(v)) — exactly the duplicates — and leave the in-between
// values with the run's first process, which is the behaviour the
// paper's Fig. 4 illustrates. The two readings coincide whenever the
// span holds only duplicates.
func Fast[T any](data []T, pg []T, loc Locator[T], cmp func(a, b T) int) []int {
	p := len(pg) + 1
	bounds := make([]int, p+1)
	bounds[p] = len(data)
	i := 0
	for i < len(pg) {
		j := i + 1
		for j < len(pg) && cmp(pg[j], pg[i]) == 0 {
			j++
		}
		rs := j - i
		if rs == 1 {
			bounds[i+1] = loc.UpperBound(data, pg[i])
		} else {
			v := pg[i]
			lbv := loc.LowerBound(data, v)
			pd := loc.UpperBound(data, v)
			span := pd - lbv
			for k := 1; k <= rs; k++ {
				if i+k <= len(pg) {
					bounds[i+k] = lbv + span*k/rs
				}
			}
		}
		i = j
	}
	return bounds
}

// Stable computes the send boundaries of the stable skew-aware
// partition. rank is this process's rank; dupCounts[k] holds every
// rank's duplicate count for replicated run k (as returned by
// LocalDupCounts, all-gathered — runs must match Runs(pg)).
//
// All duplicates, ordered rank-by-rank, form one contiguous "replicated
// value space"; it is cut into rs equal groups, and the g-th process of
// the run gathers group g (Fig. 2 lines 11-25, Fig. 4 right). Because
// group number is monotone in (rank, local position), rank order — and
// therefore stability — is preserved without secondary sorting keys.
func Stable[T any](data []T, pg []T, loc Locator[T], cmp func(a, b T) int, rank int, dupCounts [][]int64) ([]int, error) {
	p := len(pg) + 1
	bounds := make([]int, p+1)
	bounds[p] = len(data)
	runIdx := 0
	i := 0
	for i < len(pg) {
		j := i + 1
		for j < len(pg) && cmp(pg[j], pg[i]) == 0 {
			j++
		}
		rs := j - i
		if rs == 1 {
			bounds[i+1] = loc.UpperBound(data, pg[i])
			i = j
			continue
		}
		if runIdx >= len(dupCounts) {
			return nil, fmt.Errorf("partition: %d replicated runs but only %d count vectors", runIdx+1, len(dupCounts))
		}
		cv := dupCounts[runIdx]
		runIdx++
		if rank >= len(cv) {
			return nil, fmt.Errorf("partition: rank %d outside count vector of length %d", rank, len(cv))
		}

		v := pg[i]
		lbv := loc.LowerBound(data, v)
		pd := loc.UpperBound(data, v)
		cr := int64(pd - lbv)
		if want := cv[rank]; want != cr {
			return nil, fmt.Errorf("partition: local duplicate count %d disagrees with gathered count %d", cr, want)
		}

		// Global positions of my duplicates: [sb, sb+cr).
		var sb, total int64
		for r, c := range cv {
			if r < rank {
				sb += c
			}
			total += c
		}
		// Group size: ceiling so rs groups always cover the space.
		sa := (total + int64(rs) - 1) / int64(rs)
		if sa == 0 {
			sa = 1
		}
		for k := 1; k <= rs; k++ {
			if i+k > len(pg) {
				break
			}
			if k == rs {
				bounds[i+k] = pd
				break
			}
			// End of group k-1 in global positions, clipped to my
			// local window.
			local := int64(k)*sa - sb
			if local < 0 {
				local = 0
			}
			if local > cr {
				local = cr
			}
			bounds[i+k] = lbv + int(local)
		}
		i = j
	}
	if runIdx != len(dupCounts) {
		return nil, fmt.Errorf("partition: %d replicated runs but %d count vectors", runIdx, len(dupCounts))
	}
	return bounds, nil
}

// Classical computes the plain upper-bound partition every sample sort
// before the paper used: boundaries[j+1] is one past the last record
// <= pg[j], so all records equal to a pivot go to one destination. It
// is correct on any input and balanced on distinct keys, but duplicates
// of a pivot value concentrate — the defect Fast and Stable repair, and
// the partition the baseline drivers (hss, ams, hyksort, psrs) keep by
// design. Pivots that arrive out of order are clamped, not rejected.
func Classical[T any](data []T, pg []T, cmp func(a, b T) int) []int {
	p := len(pg) + 1
	bounds := make([]int, p+1)
	bounds[p] = len(data)
	for j, v := range pg {
		bounds[j+1] = max(UpperBound(data, v, cmp), bounds[j])
	}
	return bounds
}

// Counts converts boundaries into per-destination record counts.
func Counts(bounds []int) []int {
	counts := make([]int, len(bounds)-1)
	for i := range counts {
		counts[i] = bounds[i+1] - bounds[i]
	}
	return counts
}

// Validate checks that bounds is a monotone partition of n records.
func Validate(bounds []int, n int) error {
	if len(bounds) < 2 {
		return fmt.Errorf("partition: need at least 2 boundaries, got %d", len(bounds))
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return fmt.Errorf("partition: bounds [%d, %d] do not cover [0, %d]", bounds[0], bounds[len(bounds)-1], n)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("partition: bounds[%d]=%d < bounds[%d]=%d", i, bounds[i], i-1, bounds[i-1])
		}
	}
	return nil
}
