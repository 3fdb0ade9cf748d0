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

// DispatchLocal sorts data by cmp with the LSD radix kernel when cd
// extracts an integer sort key (codec.Uint64Keyer) and an agreement
// sweep — one O(n) comparison pass, cheap next to the sort it replaces —
// finds that the key orders the records the way cmp does. It is the one
// place the kernel meets a caller's comparator. buf is the kernel's
// scratch; the slab it ended up with is returned for the caller to keep.
//
// sorted reports whether data is now sorted (stably, if asked); when it
// is not the caller runs its comparison sort. rejected says which sweep
// disagreed: 0 none, and (0, false) a codec without a key.
//
// A non-stable sort runs the kernel in place and accepts any result
// that is non-decreasing under cmp; a rejected one (1) leaves data
// permuted, which a non-stable fallback does not mind.
//
// A stable sort must hand a fallback the input order, so nothing may be
// overwritten before it is verified, and the verification must prove
// more: that the kernel's key-stable result is the comparator-stable
// one. It sorts the halves of data as two leaves and joins them with
// the comparator merge. With h = ⌈n/2⌉, data = [H1|H2], buf = [X|Y]:
//
//  1. H1 is sorted through X and Y into X, never writing data. The
//     strict sweep (agrees) holds the result S1 to "cmp ≤ 0, and
//     cmp == 0 exactly where the keys are equal" on every adjacent pair.
//     For a strict weak order that makes comparator order and key order
//     one order on the leaf: S1 is non-decreasing, and two cmp-equal
//     records have only cmp-equal neighbours between them, hence one
//     key, hence — the kernel being stable in the key — their input
//     order. Rejected (1): data is untouched, the caller sorts it.
//  2. H1's storage is free now. H2 is sorted through Y and H1's place
//     into Y, never writing H2, and swept the same way. Rejected (2):
//     H2 is intact, and is comparison-sorted where it lies, with Y as
//     the merge sort's scratch.
//  3. MergeInto(data, S1, S2) takes S1 on ties. Each leaf is its half's
//     stable sort, so the merge is the whole's; no cross-leaf check is
//     needed, and buf — 2h records, n or n+1 — is all the memory there is.
func DispatchLocal[T any](data, buf []T, cd codec.Codec[T], cmp func(a, b T) int, stable bool) (scratch []T, sorted bool, rejected int) {
	key, ok := codec.Uint64KeyOf(cd)
	if !ok {
		return buf, false, 0
	}
	n := len(data)
	if !stable || n < 2 {
		buf = LSDSortBuf(data, buf, key)
		if psort.IsSorted(data, cmp) {
			return buf, true, 0
		}
		return buf, false, 1
	}
	h := (n + 1) / 2
	if cap(buf) < 2*h {
		buf = make([]T, 2*h)
	}
	x, y := buf[:h], buf[h:2*h]
	h1, h2 := data[:h], data[h:]
	s1, s2 := x, y[:len(h2)]
	lsdInto(h1, s1, y, key)
	if !agrees(s1, key, cmp) {
		return buf, false, 1
	}
	lsdInto(h2, s2, h1[:len(h2)], key)
	if !agrees(s2, key, cmp) {
		psort.StableSortBuf(h2, y, cmp)
		s2, rejected = h2, 2
	}
	psort.MergeInto(data, s1, s2, cmp)
	return buf, true, rejected
}

// agrees is the stable dispatch's sweep over a key-sorted leaf: every
// adjacent pair is in cmp order, and cmp-equal exactly when key-equal.
func agrees[T any](s []T, key func(T) uint64, cmp func(a, b T) int) bool {
	if len(s) == 0 {
		return true
	}
	prev := key(s[0])
	for i := 1; i < len(s); i++ {
		k, c := key(s[i]), cmp(s[i-1], s[i])
		if c > 0 || (c == 0) != (k == prev) {
			return false
		}
		prev = k
	}
	return true
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
// had to run) is returned for the caller to keep. It is the kernel with
// the input as its second buffer.
func LSDSortBuf[T any](data, buf []T, key func(T) uint64) []T {
	var p plan
	scan(&p, data, key)
	if p.passes == 0 {
		return buf
	}
	if cap(buf) < len(data) {
		buf = make([]T, len(data))
	}
	if out := scatter(&p, data, buf[:len(data)], data, key); p.passes%2 == 1 {
		copy(data, out)
	}
	return buf
}

// lsdInto leaves src's records, stably sorted by key, in dst; the
// passes run through dst and spare (each len(src) records) and src is
// only read.
func lsdInto[T any](src, dst, spare []T, key func(T) uint64) {
	var p plan
	scan(&p, src, key)
	if p.passes == 0 {
		copy(dst, src)
		return
	}
	if p.passes%2 == 0 {
		dst, spare = spare, dst // the last pass is the one that must write dst
	}
	scatter(&p, src, dst, spare, key)
}

// plan is what one read of the records decides: every digit's
// histogram, and which digits need a pass at all. A digit all records
// agree on — most of a small key universe — costs nothing further.
type plan struct {
	counts [digits][buckets]int
	live   [digits]int // the digits to sort by, live[:passes]
	passes int
}

func scan[T any](p *plan, src []T, key func(T) uint64) {
	if len(src) < 2 {
		return
	}
	for i := range src {
		k := key(src[i])
		for d := range p.counts {
			p.counts[d][k&(buckets-1)]++
			k >>= digitBits
		}
	}
	first := key(src[0])
	for d := range p.counts {
		if p.counts[d][(first>>(d*digitBits))&(buckets-1)] != len(src) {
			p.live[p.passes] = d
			p.passes++
		}
	}
}

// scatter is the LSD pass loop, the only one: src into a, a into b, b
// into a, … one counting-sort pass per live digit, key called once per
// record per pass. src is never written (unless it is b — the in-place
// sort); the slice the last pass wrote is returned.
func scatter[T any](p *plan, src, a, b []T, key func(T) uint64) []T {
	dst, next := a, b
	for _, d := range p.live[:p.passes] {
		// Turn the digit's counts into each bucket's first output slot.
		pos, slot := &p.counts[d], 0
		for i, c := range pos {
			pos[i], slot = slot, slot+c
		}
		shift := uint(d * digitBits)
		for i := range src {
			bk := (key(src[i]) >> shift) & (buckets - 1)
			dst[pos[bk]] = src[i]
			pos[bk]++
		}
		src, dst, next = dst, next, dst
	}
	return src
}
