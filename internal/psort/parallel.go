package psort

import (
	"sync"
	"time"

	"sdssort/internal/partition"
)

// SkewAwareParallelMerge merges sorted chunks into one sorted slice
// using `workers` goroutines, balancing the per-worker load with the
// paper's skew-aware partition: the value space is cut by workers-1
// global pivots sampled from the chunks, runs of equal pivots share
// their duplicates evenly, and each worker k-way merges its slice of
// every chunk. This is the merge inside SdssLocalSort and SdssNodeMerge
// (§2.2, §2.3); unlike sample-based merging it keeps the workers
// balanced on heavily duplicated data.
//
// When stable is true, equal records keep chunk order and in-chunk
// order, so passing chunks in original-data order yields a stable sort.
func SkewAwareParallelMerge[T any](chunks [][]T, workers int, stable bool, cmp func(a, b T) int) []T {
	out, _ := ParallelMerge(chunks, workers, stable, true, cmp)
	return out
}

// ParallelMerge is the parallel merge behind SkewAwareParallelMerge,
// returning in addition each output segment's busy time: one entry at
// one worker, else one per segment, zero for a segment left empty. The
// maximum is the merge's critical path — the wall time a machine with
// enough cores would observe — which is how the experiments compare
// balance on hosts with fewer cores than workers.
//
// With skewAware false it is the baseline the paper compares against in
// Fig. 6a: the same sampled pivots with no handling of replicated ones,
// so every record equal to a popular value lands in one segment.
func ParallelMerge[T any](chunks [][]T, workers int, stable, skewAware bool, cmp func(a, b T) int) ([]T, []time.Duration) {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]T, total)
	if total == 0 {
		return out, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || len(chunks) == 1 {
		start := time.Now()
		KWayMergeInto(out, chunks, cmp)
		return out, []time.Duration{time.Since(start)}
	}

	pg, local := mergePivots(chunks, workers, cmp)
	p := len(pg) + 1

	// Per-chunk boundaries for the p output segments: each chunk is cut
	// as one stripe by the split rule of the distributed sort, searched
	// through its own local pivots. Under the stable rule the chunks'
	// duplicates of a replicated pivot form one order, chunk by chunk,
	// which Split advances past each chunk.
	bounds := make([][]int, len(chunks))
	if skewAware {
		runs := partition.Runs(pg, cmp)
		lbs, ubs := make([][]int, len(chunks)), make([][]int, len(chunks))
		var dups []partition.Dups
		if stable {
			dups = make([]partition.Dups, len(runs))
		}
		for ci, c := range chunks {
			lbs[ci], ubs[ci] = partition.Locate(c, pg, local[ci], cmp)
			for k := range dups {
				dups[k].Total += int64(ubs[ci][runs[k].Start] - lbs[ci][runs[k].Start])
			}
		}
		for ci, c := range chunks {
			bounds[ci] = partition.Split(runs, lbs[ci], ubs[ci], len(c), dups)
		}
	} else {
		for ci, c := range chunks {
			bounds[ci] = partition.Classical(c, pg, cmp)
		}
	}

	// Output offset of each segment.
	offsets := make([]int, p+1)
	for w := 0; w < p; w++ {
		size := 0
		for ci := range chunks {
			size += bounds[ci][w+1] - bounds[ci][w]
		}
		offsets[w+1] = offsets[w] + size
	}

	var wg sync.WaitGroup
	busy := make([]time.Duration, p)
	sem := make(chan struct{}, workers)
	for w := 0; w < p; w++ {
		if offsets[w+1] == offsets[w] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(w int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			subs := make([][]T, 0, len(chunks))
			for ci, c := range chunks {
				subs = append(subs, c[bounds[ci][w]:bounds[ci][w+1]])
			}
			KWayMergeInto(out[offsets[w]:offsets[w+1]], subs, cmp)
			busy[w] = time.Since(start)
		}(w)
	}
	wg.Wait()
	return out, busy
}

// mergePivots draws workers-1 global pivots by the two steps of the
// distributed sort's regular sampling (§2.4 applied to shared memory):
// each chunk's local pivots are its regular sample of workers, which
// also indexes the chunk's boundary search, and the global pivots are
// the regular sample of workers of their sorted pool.
func mergePivots[T any](chunks [][]T, workers int, cmp func(a, b T) int) ([]T, []partition.Stripe[T]) {
	local := make([]partition.Stripe[T], len(chunks))
	var pool []T
	for ci, c := range chunks {
		local[ci] = partition.NewStripe(c, workers, cmp)
		pool = append(pool, local[ci].Pivots...)
	}
	StableSort(pool, cmp)
	return partition.NewStripe(pool, workers, cmp).Pivots, local
}

// ParallelSort sorts data in place using up to `cores` goroutines: the
// slice is cut into contiguous chunks, each chunk is sorted on its own
// goroutine, and the chunks are combined with the skew-aware parallel
// merge. With stable=true the result preserves input order of equal
// records. This is SdssLocalSort (§2.2) — a shared-memory SDS-Sort
// without the network.
func ParallelSort[T any](data []T, cores int, stable bool, cmp func(a, b T) int) {
	n := len(data)
	if cores < 1 {
		cores = 1
	}
	if n < 2 {
		return
	}
	if cores == 1 || n < 4*cores {
		sortChunk(data, stable, cmp)
		return
	}

	chunkSize := (n + cores - 1) / cores
	var chunks [][]T
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		chunks = append(chunks, data[lo:hi])
	}

	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c []T) {
			defer wg.Done()
			sortChunk(c, stable, cmp)
		}(c)
	}
	wg.Wait()

	merged, _ := ParallelMerge(chunks, cores, stable, true, cmp)
	copy(data, merged)
}

func sortChunk[T any](c []T, stable bool, cmp func(a, b T) int) {
	if stable {
		StableSort(c, cmp)
	} else {
		Sort(c, cmp)
	}
}

// AdaptiveSort sorts data in place, first checking for partial order:
// when the average run length clears runThreshold the existing runs are
// merged (O(n log r)); otherwise it falls back to ParallelSort. This is
// the dynamic selection of §2.7 applied at the local level.
func AdaptiveSort[T any](data []T, cores int, stable bool, runThreshold float64, cmp func(a, b T) int) {
	if len(data) < 2 {
		return
	}
	if runThreshold > 0 && Sortedness(data, cmp) >= runThreshold {
		NaturalMergeSort(data, cmp)
		return
	}
	ParallelSort(data, cores, stable, cmp)
}
