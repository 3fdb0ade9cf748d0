package psort

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
// combined length. A binary heap of chunk heads keyed by (record, chunk
// index) gives O(n log k) comparisons regardless of how skewed the chunk
// sizes are.
func KWayMergeInto[T any](dst []T, chunks [][]T, cmp func(a, b T) int) {
	type src struct {
		data []T
		pos  int
		id   int
	}
	var srcs []src
	for i, c := range chunks {
		if len(c) > 0 {
			srcs = append(srcs, src{data: c, id: i})
		}
	}
	switch len(srcs) {
	case 0:
		return
	case 1:
		copy(dst, srcs[0].data)
		return
	case 2:
		MergeInto(dst, srcs[0].data, srcs[1].data, cmp)
		return
	}

	// less orders heap entries by current head record, breaking ties by
	// chunk index for stability.
	less := func(a, b *src) bool {
		c := cmp(a.data[a.pos], b.data[b.pos])
		if c != 0 {
			return c < 0
		}
		return a.id < b.id
	}

	// heap holds indices into srcs.
	heap := make([]int, len(srcs))
	for i := range heap {
		heap[i] = i
	}
	siftDownHeap := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && less(&srcs[heap[child+1]], &srcs[heap[child]]) {
				child++
			}
			if !less(&srcs[heap[child]], &srcs[heap[root]]) {
				return
			}
			heap[root], heap[child] = heap[child], heap[root]
			root = child
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDownHeap(i, len(heap))
	}

	n := len(heap)
	for out := 0; out < len(dst); out++ {
		top := &srcs[heap[0]]
		dst[out] = top.data[top.pos]
		top.pos++
		if top.pos >= len(top.data) {
			// Source exhausted: shrink the heap.
			n--
			heap[0] = heap[n]
			heap = heap[:n]
		}
		if n > 1 {
			siftDownHeap(0, n)
		}
	}
}
