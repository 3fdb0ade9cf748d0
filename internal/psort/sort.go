// Package psort is the shared-memory sorting substrate of SDS-Sort: the
// sequential sorts that run on one core (the paper uses C++ std::sort
// and std::stable_sort), detection and exploitation of partially ordered
// data, stable k-way merging, and the skew-aware parallel merge that
// makes SdssLocalSort "a shared-memory SDS-Sort without the network".
//
// Everything is generic over a three-way comparator; nothing below the
// comparator inspects records, preserving the paper's property that any
// user-chosen key works without secondary sorting keys.
package psort

import "math/bits"

// insertionThreshold is the subarray size below which introsort switches
// to insertion sort.
const insertionThreshold = 16

// Sort orders data in place with an unstable comparison sort (introsort:
// median-of-three quicksort, falling back to heapsort past a depth limit
// and to insertion sort on small ranges). It is the analogue of the
// paper's std::sort.
func Sort[T any](data []T, cmp func(a, b T) int) {
	if len(data) < 2 {
		return
	}
	depthLimit := 2 * bits.Len(uint(len(data)))
	introsort(data, cmp, depthLimit)
}

func introsort[T any](data []T, cmp func(a, b T) int, depth int) {
	for len(data) > insertionThreshold {
		if depth == 0 {
			heapsort(data, cmp)
			return
		}
		depth--
		p := partitionHoare(data, cmp)
		// Recurse on the smaller side, loop on the larger, bounding
		// stack depth at O(log n).
		if p < len(data)-p {
			introsort(data[:p], cmp, depth)
			data = data[p:]
		} else {
			introsort(data[p:], cmp, depth)
			data = data[:p]
		}
	}
	insertionSort(data, cmp)
}

// partitionHoare partitions around a median-of-three pivot and returns
// the split point: every element of data[:p] is <= every element of
// data[p:], with 0 < p < len(data).
func partitionHoare[T any](data []T, cmp func(a, b T) int) int {
	n := len(data)
	m := n / 2
	// Median-of-three into data[m].
	if cmp(data[m], data[0]) < 0 {
		data[m], data[0] = data[0], data[m]
	}
	if cmp(data[n-1], data[m]) < 0 {
		data[n-1], data[m] = data[m], data[n-1]
		if cmp(data[m], data[0]) < 0 {
			data[m], data[0] = data[0], data[m]
		}
	}
	pivot := data[m]
	i, j := -1, n
	for {
		for {
			i++
			if cmp(data[i], pivot) >= 0 {
				break
			}
		}
		for {
			j--
			if cmp(data[j], pivot) <= 0 {
				break
			}
		}
		if i >= j {
			if j == n-1 {
				// All elements <= pivot and the scan met at the
				// end; split before the last element to
				// guarantee progress.
				return n - 1
			}
			return j + 1
		}
		data[i], data[j] = data[j], data[i]
	}
}

func insertionSort[T any](data []T, cmp func(a, b T) int) {
	for i := 1; i < len(data); i++ {
		for j := i; j > 0 && cmp(data[j], data[j-1]) < 0; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

func heapsort[T any](data []T, cmp func(a, b T) int) {
	n := len(data)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(data, i, n, cmp)
	}
	for end := n - 1; end > 0; end-- {
		data[0], data[end] = data[end], data[0]
		siftDown(data, 0, end, cmp)
	}
}

func siftDown[T any](data []T, root, end int, cmp func(a, b T) int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && cmp(data[child], data[child+1]) < 0 {
			child++
		}
		if cmp(data[root], data[child]) >= 0 {
			return
		}
		data[root], data[child] = data[child], data[root]
		root = child
	}
}

// StableSort orders data in place preserving the relative order of equal
// elements (top-down merge sort with one scratch buffer). It is the
// analogue of the paper's std::stable_sort.
func StableSort[T any](data []T, cmp func(a, b T) int) {
	if len(data) < 2 {
		return
	}
	scratch := make([]T, len(data))
	mergeSort(data, scratch, cmp)
}

// StableSortBuf is StableSort reusing a caller-provided scratch buffer
// of at least len(data) elements.
func StableSortBuf[T any](data, scratch []T, cmp func(a, b T) int) {
	if len(data) < 2 {
		return
	}
	if len(scratch) < len(data) {
		scratch = make([]T, len(data))
	}
	mergeSort(data, scratch[:len(data)], cmp)
}

func mergeSort[T any](data, scratch []T, cmp func(a, b T) int) {
	n := len(data)
	if n <= insertionThreshold {
		// Binary-insertion would also do; plain insertion is stable.
		insertionSortStable(data, cmp)
		return
	}
	mid := n / 2
	mergeSort(data[:mid], scratch[:mid], cmp)
	mergeSort(data[mid:], scratch[mid:], cmp)
	if cmp(data[mid-1], data[mid]) <= 0 {
		return // already in order
	}
	copy(scratch, data)
	MergeInto(data, scratch[:mid], scratch[mid:], cmp)
}

// insertionSortStable is insertionSort; insertion sort is inherently
// stable because it only swaps strictly out-of-order neighbours.
func insertionSortStable[T any](data []T, cmp func(a, b T) int) {
	insertionSort(data, cmp)
}

// MergeInto merges sorted a and b into dst (len(dst) == len(a)+len(b)),
// taking from a on ties — the stability rule. Either input may be the
// tail of dst itself: the write position only catches up with its read
// position once the other input is exhausted, and what is left of it is
// then already in place, and not copied onto itself.
// The kernel is branchless: the comparison outcome, as 0 or 1, indexes
// the pair of source addresses and advances the indices instead of
// steering an unpredictable branch — selecting between the two values
// themselves compiles to a branch for float records — so merging random
// keys is bound by memory and the comparator, not by branch
// mispredictions. (The b-before-a tie check is what makes
// take-a-on-ties fall out of `cmp(b, a) < 0`.)
func MergeInto[T any](dst, a, b []T, cmp func(x, y T) int) {
	i, j := MergeSome(dst, a, b, cmp)
	k := i + j
	k += copy(dst[k:], a[i:])
	if j < len(b) && &dst[k] != &b[j] {
		copy(dst[k:], b[j:])
	}
}

// MergeBack is MergeInto run from the back: the same output, ties to a,
// written largest first. Either input may be the front of dst itself:
// the write position stays past its unread records while the other
// input has any left, and what is left of it is then already in place,
// and not copied onto itself. It is the same branchless kernel, with
// the same comparison (`cmp(b, a) < 0` keeps a's record at the back).
func MergeBack[T any](dst, a, b []T, cmp func(x, y T) int) {
	i, j := len(a), len(b)
	for n := min(i, j); n > 0; n = min(i, j) {
		for end := i + j - n; i+j > end; {
			src := [2]*T{&a[i-1], &b[j-1]}
			t := 1
			if cmp(*src[1], *src[0]) < 0 {
				t = 0
			}
			dst[i+j-1] = *src[t]
			j -= t
			i -= 1 - t
		}
	}
	if i > 0 && &dst[0] != &a[0] {
		copy(dst, a[:i])
	}
	if j > 0 && &dst[0] != &b[0] {
		copy(dst, b[:j])
	}
}

// MergeSome is MergeInto's kernel alone: it merges a[:i] and b[:j] into
// dst[:i+j], taking from a on ties, and stops as soon as dst is full or
// either input is spent — the caller refills the spent side, or copies
// the other's tail. It is the two-way step of extsort's merge tree.
func MergeSome[T any](dst, a, b []T, cmp func(x, y T) int) (i, j int) {
	for {
		// n steps can neither overrun dst nor step past either input's
		// end, so the inner loop tests one bound instead of three.
		n := min(len(dst)-i-j, len(a)-i, len(b)-j)
		if n <= 0 {
			return i, j
		}
		for k, end := i+j, i+j+n; k < end; k++ {
			src := [2]*T{&a[i], &b[j]}
			t := 0
			if cmp(*src[1], *src[0]) < 0 {
				t = 1
			}
			dst[k] = *src[t]
			j += t
			i += 1 - t
		}
	}
}

// IsSorted reports whether data is non-decreasing under cmp.
func IsSorted[T any](data []T, cmp func(a, b T) int) bool {
	for i := 1; i < len(data); i++ {
		if cmp(data[i-1], data[i]) > 0 {
			return false
		}
	}
	return true
}
