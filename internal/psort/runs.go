package psort

// Run is a maximal already-ordered span of the input, [Start, End).
type Run struct {
	Start, End int
}

// FindRuns scans data and returns its decomposition into maximal sorted
// runs. Strictly descending runs are reversed in place (the timsort
// rule: only strictly descending, so stability is preserved). Partially
// ordered inputs produce few runs, which is what lets the local ordering
// step run in O(n log r) instead of O(n log n) — the paper's motivation
// for recognising partially ordered data (§1, §2.7).
func FindRuns[T any](data []T, cmp func(a, b T) int) []Run {
	n := len(data)
	if n == 0 {
		return nil
	}
	var runs []Run
	i := 0
	for i < n {
		j := i + 1
		if j == n {
			runs = append(runs, Run{i, n})
			break
		}
		if cmp(data[j], data[i]) < 0 {
			// Strictly descending run.
			for j < n && cmp(data[j], data[j-1]) < 0 {
				j++
			}
			reverse(data[i:j])
		} else {
			// Non-decreasing run.
			for j < n && cmp(data[j], data[j-1]) >= 0 {
				j++
			}
		}
		runs = append(runs, Run{i, j})
		i = j
	}
	return runs
}

func reverse[T any](s []T) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// CountRuns returns the number of maximal non-decreasing runs without
// modifying data (descending spans count element-wise, as they would
// after the cheap reversal FindRuns applies).
func CountRuns[T any](data []T, cmp func(a, b T) int) int {
	n := len(data)
	if n == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < n; i++ {
		if cmp(data[i], data[i-1]) < 0 {
			runs++
		}
	}
	return runs
}

// NaturalMergeSort sorts data stably by merging its existing runs with a
// k-way merge: O(n log r) for r runs, degrading gracefully to merge sort
// on random data and touching each element only once plus the merge on
// nearly sorted data. This is the "sorting partially ordered data in
// O(N)" path of the paper's §2.7.
func NaturalMergeSort[T any](data []T, cmp func(a, b T) int) {
	NaturalMergeSortBuf(data, nil, cmp)
}

// NaturalMergeSortBuf is NaturalMergeSort with its one buffer in the
// caller's hands: buf serves when it has room for len(data) records. The
// runs merge between data and the buffer (MergeRuns), copied back only
// when the result lands in the buffer. The buffer the sort ended up with
// — buf, a fresh one, or buf untouched when data is one run — is
// returned for the caller to keep.
func NaturalMergeSortBuf[T any](data, buf []T, cmp func(a, b T) int) []T {
	runs := FindRuns(data, cmp)
	if len(runs) <= 1 {
		return buf
	}
	if cap(buf) < len(data) {
		buf = make([]T, len(data))
	}
	lens := make([]int, len(runs))
	for i, r := range runs {
		lens[i] = r.End - r.Start
	}
	if out := MergeRuns(data, buf[:len(data)], lens, cmp); &out[0] != &data[0] {
		copy(data, out)
	}
	return buf
}

// Sortedness returns n/r, the average run length: n for sorted input,
// ~2 for random input. The adaptive local-ordering step uses it to
// decide whether merging beats re-sorting.
func Sortedness[T any](data []T, cmp func(a, b T) int) float64 {
	if len(data) == 0 {
		return 1
	}
	return float64(len(data)) / float64(CountRuns(data, cmp))
}
