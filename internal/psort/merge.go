package psort

import (
	"math/bits"
	"slices"
)

// KWayMerge merges k sorted chunks into a new slice, stably: ties are
// won by the chunk with the lower index, so if chunk order reflects
// original record order (chunks of one array, or data received from
// ranks in rank order) the merge preserves it. The paper's SdssMergeAll
// performs exactly this on the p sorted chunks the exchange delivers.
func KWayMerge[T any](chunks [][]T, cmp func(a, b T) int) []T {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	dst := make([]T, total)
	KWayMergeInto(dst, chunks, cmp)
	return dst
}

// KWayMergeInto merges chunks into dst, which must have exactly the
// combined length and alias none of them. It runs MergeRuns' levels: the
// first reads the chunk pairs where they lie, into dst or into one
// scratch of len(dst), whichever makes the last level land in dst.
func KWayMergeInto[T any](dst []T, chunks [][]T, cmp func(a, b T) int) {
	var live [][]T
	for _, c := range chunks {
		if len(c) > 0 {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return
	case 1:
		copy(dst, live[0])
		return
	case 2:
		MergeInto(dst, live[0], live[1], cmp)
		return
	}
	scratch := make([]T, len(dst))
	first, other := scratch, dst
	if bits.Len(uint(len(live)-1))%2 == 1 { // ⌈log₂ k⌉ levels in all
		first, other = dst, scratch
	}
	// Level one: chunk pairs, wherever they lie, into first.
	pairs := make([]int, 0, (len(live)+1)/2)
	for i, lo := 0, 0; i < len(live); i += 2 {
		var b []T
		if i+1 < len(live) {
			b = live[i+1]
		}
		n := len(live[i]) + len(b)
		MergeInto(first[lo:lo+n], live[i], b, cmp)
		pairs, lo = append(pairs, n), lo+n
	}
	MergeRuns(first, other, pairs, cmp)
}

// MergeRuns merges sorted runs that lie next to each other in a — run i
// is the next lens[i] records — into one sorted run, stably, and returns
// whichever of a and b holds it; the other holds garbage. b must have
// room for all the records. Nothing is allocated: lens is the merge's
// own, and it is overwritten.
//
// It is the multiway merge as a tree: empty runs dropped, ⌈log₂ k⌉
// levels for the k left, each one pass of MergeInto's branchless kernel
// over every adjacent pair of runs, from a into b and back. A level's
// runs are the input runs in groups of 2^l, in order, and MergeInto
// takes the left run on ties — the group of the lower input runs — so by
// induction each group is the stable merge of its input runs, and the
// last one is the whole: ties go to the lower run, record for record the
// order a heap keyed on (record, run index) emits.
func MergeRuns[T any](a, b []T, lens []int, cmp func(x, y T) int) []T {
	n := 0
	for _, l := range lens {
		n += l
	}
	a, b = a[:n], b[:n]
	mergeTree(lens, func(lo, x, y int) {
		MergeInto(b[lo:lo+x+y], a[lo:lo+x], a[lo+x:lo+x+y], cmp)
	}, func() { a, b = b, a })
	return a
}

// MergeRunsIn is MergeRuns with the result in a itself: the same tree,
// the same pairs, the same ties, so the same output, through buf, which
// must hold MergeRunsNeed(lens) records and alias none of a. Each pair's
// smaller run moves to buf and merges back into the pair's span — from
// the front when it is the left run, whose partner is then the span's
// tail, from the back (MergeBack) when it is the right one, whose
// partner is the span's front — the left run winning ties either way.
// An odd level's last run stays where it lies. lens is overwritten.
func MergeRunsIn[T any](a, buf []T, lens []int, cmp func(x, y T) int) {
	mergeTree(lens, func(lo, x, y int) {
		dst := a[lo : lo+x+y]
		switch {
		case y == 0:
		case x <= y:
			left := buf[:x]
			copy(left, dst)
			MergeInto(dst, left, dst[x:], cmp)
		default:
			right := buf[:y]
			copy(right, dst[x:])
			MergeBack(dst, dst[:x], right, cmp)
		}
	}, func() {})
}

// MergeRunsNeed is the buffer MergeRunsIn takes over runs of lens: the
// longest smaller run of any pair its tree merges, at most half the
// records. lens is left as it is.
func MergeRunsNeed(lens []int) (need int) {
	mergeTree(slices.Clone(lens), func(_, x, y int) { need = max(need, min(x, y)) }, func() {})
	return need
}

// mergeTree walks the merge tree over the runs of lens: empty runs
// dropped, then level by level every adjacent pair of runs — x and y
// records from lo, y = 0 for an odd level's last run — handed to pair,
// and level called after each level. lens is overwritten.
func mergeTree(lens []int, pair func(lo, x, y int), level func()) {
	k := 0
	for _, l := range lens {
		if l > 0 {
			lens[k], k = l, k+1
		}
	}
	for ; k > 1; k = (k + 1) / 2 {
		for i, lo := 0, 0; i < k; i += 2 {
			x, y := lens[i], 0
			if i+1 < k {
				y = lens[i+1]
			}
			pair(lo, x, y)
			lens[i/2], lo = x+y, lo+x+y
		}
		level()
	}
}
