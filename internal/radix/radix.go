// Package radix implements a parallel radix sort for records with
// unsigned-integer sort keys — one of the non-sampling related-work
// algorithms the paper positions against (§5). Distribution: a global
// histogram over the top bits assigns contiguous bucket ranges to ranks
// so the loads balance (for value distributions that spread across the
// bucket space); each rank then LSD-radix-sorts its received range.
// Like all radix sorts it needs an integer key extraction and cannot
// sort by arbitrary comparators — exactly the flexibility gap SDS-Sort
// fills.
package radix

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
)

// topBits is the width of the distribution histogram. Floating-point
// keys concentrate in few exponent values, so the histogram needs to see
// mantissa bits beyond sign+exponent (12 bits) to split the [0.5, 1)
// mass across ranks; 14 bits gives 2 mantissa bits while keeping the
// all-gathered histogram at 128KB per rank.
const topBits = 14

const numBuckets = 1 << topBits

// Options configures the parallel radix sort.
type Options struct {
	// Timer accrues per-phase time when non-nil.
	Timer *metrics.PhaseTimer
}

func (o Options) timer() *metrics.PhaseTimer {
	if o.Timer != nil {
		return o.Timer
	}
	return metrics.NewPhaseTimer()
}

// Sort sorts records distributed across the communicator by the uint64
// key extracted by key(). Rank order of the output blocks follows key
// order. The sort is stable with respect to the key (LSD radix).
func Sort[T any](c *comm.Comm, data []T, cd codec.Codec[T], key func(T) uint64, opt Options) ([]T, error) {
	tm := opt.timer()
	tm.Start(metrics.PhaseOther)
	defer tm.Stop()
	p := c.Size()
	if p == 1 {
		LSDSort(data, key)
		return data, nil
	}

	// Global histogram over the top bits.
	tm.Start(metrics.PhasePivotSelection)
	local := make([]int64, numBuckets)
	for _, rec := range data {
		local[key(rec)>>(64-topBits)]++
	}
	parts, err := c.Allgather(comm.EncodeInt64s(local))
	if err != nil {
		return nil, fmt.Errorf("radix: histogram gather: %w", err)
	}
	global := make([]int64, numBuckets)
	var total int64
	for r, buf := range parts {
		vals, err := comm.DecodeInt64s(buf)
		if err != nil || len(vals) != numBuckets {
			return nil, fmt.Errorf("radix: bad histogram from rank %d", r)
		}
		for i, v := range vals {
			global[i] += v
			total += v
		}
	}

	// Assign contiguous bucket ranges to ranks, balancing record
	// counts: rank j owns buckets [cut[j], cut[j+1]).
	cut := make([]int, p+1)
	cut[p] = numBuckets
	var running int64
	nextRank := 1
	for b := 0; b < numBuckets && nextRank < p; b++ {
		running += global[b]
		for nextRank < p && running >= int64(nextRank)*total/int64(p) {
			cut[nextRank] = b + 1
			nextRank++
		}
	}
	for j := 1; j < p; j++ {
		if cut[j] < cut[j-1] {
			cut[j] = cut[j-1]
		}
	}

	// Route each record to its bucket range's owner.
	tm.Start(metrics.PhaseExchange)
	owner := make([]int, numBuckets)
	for j := 0; j < p; j++ {
		for b := cut[j]; b < cut[j+1]; b++ {
			owner[b] = j
		}
	}
	outParts := make([][]T, p)
	for _, rec := range data {
		dst := owner[key(rec)>>(64-topBits)]
		outParts[dst] = append(outParts[dst], rec)
	}
	sendParts := make([][]byte, p)
	for dst := 0; dst < p; dst++ {
		// Zero-copy-capable codecs scatter straight from the bucket
		// slab; the buckets are not touched again until the exchange
		// returns, so aliasing the storage is safe.
		if wire, ok := codec.View(cd, outParts[dst]); ok {
			sendParts[dst] = wire
			continue
		}
		sendParts[dst] = codec.EncodeSlice(cd, nil, outParts[dst])
	}
	recv, err := c.Alltoall(sendParts)
	if err != nil {
		return nil, fmt.Errorf("radix: exchange: %w", err)
	}

	tm.Start(metrics.PhaseLocalOrdering)
	var mine []T
	for src := 0; src < p; src++ {
		mine, err = codec.DecodeAppend(cd, mine, recv[src])
		if err != nil {
			return nil, fmt.Errorf("radix: decode from rank %d: %w", src, err)
		}
	}
	LSDSort(mine, key)
	return mine, nil
}

// DispatchLocal sorts data in place with the LSD radix pass when cd
// extracts an integer sort key (codec.Uint64Keyer) and the result
// agrees with the caller's comparator, reporting whether it did. The
// agreement sweep is one O(n) comparison pass — cheap next to the sort
// it replaces — and is what makes the dispatch safe against a
// comparator that disagrees with the codec's canonical key order: on
// disagreement the caller falls back to its comparison sort (data is
// left permuted but intact). Stability note: the LSD pass is stable
// with respect to the full key, so callers that need comparator-level
// stability must not dispatch: a result the sweep rejects has already
// lost the input order a stable fallback would need. core gates the
// dispatch to non-stable sorts for exactly that reason.
func DispatchLocal[T any](data []T, cd codec.Codec[T], cmp func(a, b T) int) bool {
	key, ok := codec.Uint64KeyOf(cd)
	if !ok {
		return false
	}
	LSDSort(data, key)
	return psort.IsSorted(data, cmp)
}

// The LSD pass sorts by digitBits-wide digits of the uint64 key, least
// significant first.
const (
	digitBits = 11
	digits    = (64 + digitBits - 1) / digitBits
	buckets   = 1 << digitBits
)

// LSDSort sorts data in place by the uint64 key, stably.
func LSDSort[T any](data []T, key func(T) uint64) { LSDSortBuf(data, nil, key) }

// LSDSortBuf is LSDSort with the scratch slab in the caller's hands:
// buf serves when it has room for len(data) records, and the slab the
// sort ended up with (buf, a fresh one, or buf untouched when no pass
// had to run) is returned for the caller to keep. One read of the data
// builds every digit's histogram, so a digit all records agree on —
// most of a small key universe — costs nothing further, and key is
// called once per record per executed pass.
func LSDSortBuf[T any](data, buf []T, key func(T) uint64) []T {
	n := len(data)
	if n < 2 {
		return buf
	}
	var counts [digits][buckets]int
	for i := range data {
		k := key(data[i])
		for d := range counts {
			counts[d][k&(buckets-1)]++
			k >>= digitBits
		}
	}
	first := key(data[0])
	live := make([]int, 0, digits)
	for d := range counts {
		if counts[d][(first>>(d*digitBits))&(buckets-1)] != n {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return buf
	}
	if cap(buf) < n {
		buf = make([]T, n)
	}
	src, dst := data, buf[:n]
	for _, d := range live {
		// Turn the digit's counts into each bucket's first output slot.
		pos, next := &counts[d], 0
		for b, c := range pos {
			pos[b], next = next, next+c
		}
		shift := uint(d * digitBits)
		for i := range src {
			b := (key(src[i]) >> shift) & (buckets - 1)
			dst[pos[b]] = src[i]
			pos[b]++
		}
		src, dst = dst, src
	}
	if len(live)%2 == 1 {
		copy(data, src)
	}
	return buf
}
