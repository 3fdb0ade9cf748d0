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
	lb, ub := Locate(data, pg, loc, cmp)
	return Split(Runs(pg, cmp), lb, ub, len(data), nil)
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
	runs := Runs(pg, cmp)
	if len(runs) != len(dupCounts) {
		return nil, fmt.Errorf("partition: %d replicated runs but %d count vectors", len(runs), len(dupCounts))
	}
	lb, ub := Locate(data, pg, loc, cmp)
	dups := make([]Dups, len(runs))
	for k, cv := range dupCounts {
		if rank >= len(cv) {
			return nil, fmt.Errorf("partition: rank %d outside count vector of length %d", rank, len(cv))
		}
		if cr := int64(ub[runs[k].Start] - lb[runs[k].Start]); cr != cv[rank] {
			return nil, fmt.Errorf("partition: local duplicate count %d disagrees with gathered count %d", cr, cv[rank])
		}
		// My duplicates follow those of every rank before me.
		for r, c := range cv {
			if r < rank {
				dups[k].Start += c
			}
			dups[k].Total += c
		}
	}
	return Split(runs, lb, ub, len(data), dups), nil
}

// Dups places one stripe's duplicates of a replicated pivot value in the
// global duplicate order: they are positions [Start, Start+count) of
// Total.
type Dups struct{ Start, Total int64 }

// Search returns the pivot bounds Split reads from one sorted stripe,
// searching each distinct pivot value once: ub[j] is one past the
// stripe's last record <= pg[j], and lb[j] its first record >= pg[j],
// searched only where pg[j] is in a replicated run (0 elsewhere). find
// is the stripe's search, called in ascending value order.
func Search[T any, I int | int64](pg []T, cmp func(a, b T) int, find func(v T, upper bool) I) (lb, ub []I) {
	lb, ub = make([]I, len(pg)), make([]I, len(pg))
	for j, v := range pg {
		if j > 0 && cmp(v, pg[j-1]) == 0 {
			lb[j], ub[j] = lb[j-1], ub[j-1]
			continue
		}
		if j+1 < len(pg) && cmp(v, pg[j+1]) == 0 {
			lb[j] = find(v, false)
		}
		ub[j] = find(v, true)
	}
	return lb, ub
}

// Locate is Search over resident data through a Locator.
func Locate[T any](data, pg []T, loc Locator[T], cmp func(a, b T) int) (lb, ub []int) {
	return Search(pg, cmp, func(v T, upper bool) int {
		if upper {
			return loc.UpperBound(data, v)
		}
		return loc.LowerBound(data, v)
	})
}

// Split is the skew-aware split rule (Fig. 2) over one sorted stripe —
// a rank's slab, a chunk, or one run file — of n records, given its
// pivot bounds from Search and the pivots' replicated runs: it returns
// the stripe's p+1 send boundaries. A singleton pivot cuts at its upper
// bound. The duplicates of a value shared by rs processes go to those
// processes, and the records between the previous pivot and the value
// stay with the first of them. dups nil selects the fast rule: each
// process of a run takes an even share of this stripe's duplicates.
// Otherwise dups[k] places this stripe's duplicates of run k in the
// global duplicate order, which is cut into rs groups of
// ⌈Total/rs⌉ positions, group g going to the run's g-th process — the
// stable rule, monotone in (stripe, position). Split then moves dups
// past this stripe's duplicates, where the next stripe's start.
func Split[I int | int64](runs []PivotRun, lb, ub []I, n I, dups []Dups) []I {
	bounds := make([]I, len(ub)+2)
	copy(bounds[1:], ub)
	bounds[len(ub)+1] = n
	for k, r := range runs {
		lo, span, rs := int64(lb[r.Start]), int64(ub[r.Start]-lb[r.Start]), int64(r.Len)
		for g := int64(1); g < rs; g++ {
			cut := span * g / rs
			if dups != nil {
				group := max((dups[k].Total+rs-1)/rs, 1)
				cut = min(max(g*group-dups[k].Start, 0), span)
			}
			bounds[r.Start+int(g)] = I(lo + cut)
		}
		if dups != nil {
			dups[k].Start += span
		}
	}
	return bounds
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
func Counts[I int | int64](bounds []I) []I {
	counts := make([]I, len(bounds)-1)
	for i := range counts {
		counts[i] = bounds[i+1] - bounds[i]
	}
	return counts
}

// Validate checks that bounds is a monotone partition of n records.
func Validate[I int | int64](bounds []I, n I) error {
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
