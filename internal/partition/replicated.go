package partition

// Replicated is a faithful port of the paper's SdssReplicated (Fig. 3):
// for global pivot index i it scans the neighbourhood of pg[i] and
// reports whether the pivot is duplicated (fr), how many pivots share
// its value (rs), the rank of pg[i] among those duplicates (rr), and the
// index of the pivot immediately before the duplicated span (ppvIdx, -1
// when the span starts at pivot 0 — the case the listing leaves
// undefined; callers then bound the span with lower_bound of the value
// itself).
//
// The batched Runs/Split path subsumes this function in the sort
// itself; it is kept as the reference implementation the tests
// cross-check against.
func Replicated[T any](pg []T, i int, cmp func(a, b T) int) (fr bool, rs, rr int, ppvIdx int) {
	rs = 1
	j := i - 1
	for j >= 0 && cmp(pg[j], pg[i]) == 0 {
		j--
		rs++
		fr = true
	}
	ppvIdx = j
	rr = rs - 1
	for j = i + 1; j < len(pg) && cmp(pg[j], pg[i]) == 0; j++ {
		rs++
		fr = true
	}
	return fr, rs, rr, ppvIdx
}
