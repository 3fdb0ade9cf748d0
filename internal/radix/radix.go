// Package radix is mostly the local sort's radix kernel: Dispatch orders
// a keyed codec's records by their integer key, read in place from the
// field the codec declares (codec.KeyFielder) or through a key func, in
// cache-sized buckets, and holds the result to the caller's comparator.
// Sort is a parallel radix sort around the kernel, one of the related-work
// algorithms the paper positions against (§5): a global histogram over
// the top bits assigns contiguous bucket ranges to ranks, each of which
// sorts its range. Like all radix sorts it needs an integer key and
// cannot sort by arbitrary comparators — the gap SDS-Sort fills.
package radix

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/psort"
)

// topBits is the width of the distribution histogram. Floating-point
// keys concentrate in few exponent values, so the histogram needs to see
// mantissa bits beyond sign+exponent (12 bits) to split the [0.5, 1)
// mass across ranks; 14 bits gives 2 mantissa bits while keeping the
// all-gathered histogram at 128KB per rank.
const topBits = 14

const numBuckets = 1 << topBits

// Sort sorts records distributed across the communicator by the uint64
// key extracted by key(). Rank order of the output blocks follows key
// order. The sort is stable with respect to the key (LSD radix).
func Sort[T any](c *comm.Comm, data []T, cd codec.Codec[T], key func(T) uint64) ([]T, error) {
	p := c.Size()
	if p == 1 {
		LSDSort(data, key)
		return data, nil
	}

	// Global histogram over the top bits.
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

// Dispatch sorts data by cmp with the radix kernel when cd has an
// integer key (codec.Uint64Keyer) that an O(n) sweep finds orders the
// records as cmp does: the one place the kernel meets a caller's
// comparator. buf is the kernel's scratch, returned for the caller to
// keep. sorted reports whether data is now sorted (stably, if asked);
// rejected names the sweep that refused: 0 none, and (0, false) a codec
// without a key. A non-stable sort runs in place, swept by IsSorted. A
// stable one sorts H1 and H2, the halves of data, into the halves X and
// Y of buf — H1 never writing data, H2 through H1's place — each swept
// by agrees, and merges them, X first on ties: a refused H1 leaves data
// as it came, a refused H2 is comparison-sorted where it lies, Y its
// scratch. docs/INTERNALS.md has the proof.
//
// The run gate rides the kernel's first read: when runs > 0 and
// psort.Sortedness over the keys (over cmp, for a codec without one) is
// at least runs, data is left as it came and gated asks for the caller's
// natural-run merge.
func Dispatch[T any](data, buf []T, cd codec.Codec[T], cmp func(a, b T) int, stable bool, runs float64) (scratch []T, sorted bool, rejected int, gated bool) {
	key, ok := codec.Uint64KeyOf(cd)
	if !ok {
		return buf, false, 0, runs > 0 && psort.Sortedness(data, cmp) >= runs
	}
	var s sorter[T]
	s.fn = key
	if kf, ok := any(cd).(codec.KeyFielder); ok && codec.IsZeroCopy(cd) {
		if off, enc := kf.KeyField(); off >= 0 && off+8 <= cd.Size() {
			s.fn, s.off, s.enc = nil, uintptr(off), enc // the record's memory image holds it
		}
	}
	n := len(data)
	if !stable || n < 2 {
		if buf, gated = s.inPlace(data, buf, runs); gated {
			return buf, false, 0, true
		}
		if psort.IsSorted(data, cmp) {
			return buf, true, 0, false
		}
		return buf, false, 1, false
	}
	h := (n + 1) / 2
	h1, h2 := data[:h], data[h:]
	f := s.survey(h1, 64)
	// Only when H1's runs alone are long enough do the seam and H2 decide.
	if gate(n, f.descents, runs) && gate(n, f.descents+s.survey(data[h-1:], 0).descents, runs) {
		return buf, false, 0, true
	}
	if cap(buf) < 2*h {
		buf = make([]T, 2*h)
	}
	x, y := buf[:h], buf[h:2*h]
	s1, s2 := x, y[:len(h2)]
	s.sort(h1, s1, y, f)
	if !agrees(s1, key, cmp) {
		return buf, false, 1, false
	}
	s.sort(h2, s2, h1[:len(h2)], s.survey(h2, 64))
	if !agrees(s2, key, cmp) {
		psort.StableSortBuf(h2, y, cmp)
		s2, rejected = h2, 2
	}
	psort.MergeInto(data, s1, s2, cmp)
	return buf, true, rejected, false
}

// gate is the run gate: n records whose keys descend descents times
// have runs at least runs records long on average.
func gate(n, descents int, runs float64) bool {
	return runs > 0 && float64(max(n, 1))/float64(descents+1) >= runs
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

// LSDSort sorts data in place by the uint64 key, stably.
func LSDSort[T any](data []T, key func(T) uint64) { LSDSortBuf(data, nil, key) }

// LSDSortBuf is LSDSort with the scratch slab in the caller's hands:
// buf serves when it has room for len(data) records, and the slab the
// sort ended up with (buf, a fresh one, or buf untouched when no pass
// had to run) is returned for the caller to keep. It is the kernel with
// the input as its second buffer.
func LSDSortBuf[T any](data, buf []T, key func(T) uint64) []T {
	var s sorter[T]
	s.fn = key
	buf, _ = s.inPlace(data, buf, 0)
	return buf
}

// The kernel reads the keys once for the bits they differ in and their
// descents. Up to bucketBytes is one bucket; more takes a stable MSD
// pass on the bits below those all keys share, into buckets that fit,
// each sorted in cache by the one LSD pass loop over the 11-bit digits
// its keys differ in, or by insertion up to tiny records. bucketBytes
// keeps a bucket, its second buffer and the histograms in a core's L2
// (256 KiB to 1 MiB measured alike in BenchmarkLocalSort* on a 2-vCPU
// Xeon, 2 MiB L2). Loops read keys a block at a time onto the stack: only
// the read calls a key func, and the field read inlines there.
const (
	digitBits   = 11
	digits      = (64 + digitBits - 1) / digitBits
	buckets     = 1 << digitBits
	msdBits     = 8
	bucketBytes = 512 << 10
	tiny        = 32 // at most a block
	block       = 64
)

// sorter is one kernel call: where it reads a key — in place, off into
// the record (fn nil), or through fn — and the histograms of the low
// digits, live[:passes] those the bucket in hand is sorted by.
type sorter[T any] struct {
	fn     func(T) uint64
	off    uintptr
	enc    codec.KeyEnc
	counts [digits][buckets]int
	live   [digits]int
	passes int
}

// read returns the keys of src[i:], at most a block of them, in kb. It
// picks the key source once per block; each loop then reads one kind.
func (s *sorter[T]) read(src []T, i int, kb *[block]uint64) []uint64 {
	src = src[i:min(i+block, len(src))]
	ks := kb[:len(src)]
	if s.fn != nil {
		for j := range ks {
			ks[j] = s.fn(src[j])
		}
		return ks
	}
	if len(src) == 0 {
		return ks
	}
	base, size := unsafe.Add(unsafe.Pointer(&src[0]), s.off), unsafe.Sizeof(src[0])
	field := func(j int) uint64 { return *(*uint64)(unsafe.Add(base, uintptr(j)*size)) }
	switch s.enc {
	case codec.KeyFloat:
		for j := range ks {
			ks[j] = codec.Float64Key(math.Float64frombits(field(j)))
		}
	case codec.KeyInt:
		for j := range ks {
			ks[j] = field(j) ^ 1<<63
		}
	default:
		for j := range ks {
			ks[j] = field(j)
		}
	}
	return ks
}

// summary is what a read learns: the key bits that differ, the descents.
type summary struct {
	diff     uint64
	descents int
}

func fits[T any](n int) bool { return uintptr(n)*unsafe.Sizeof(*new(T)) <= bucketBytes }

func same[T any](a, b []T) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

func place[T any](dst, src []T) {
	if !same(dst, src) {
		copy(dst, src)
	}
}

// inPlace sorts data by key through buf, grown only when a pass must
// run; gated reports that the run gate left data as it came.
func (s *sorter[T]) inPlace(data, buf []T, runs float64) (_ []T, gated bool) {
	n, f := len(data), s.survey(data, 64)
	if gate(n, f.descents, runs) {
		return buf, true
	}
	spare := data // unread when no pass runs
	if n > tiny && f.descents > 0 {
		if cap(buf) < n {
			buf = make([]T, n)
		}
		spare = buf[:n]
	}
	s.sort(data, data, spare, f)
	return buf, false
}

// survey reads src's keys once. When src is one bucket with passes to
// run, whose keys agree from bit below up, it also counts the histograms
// of the digits below, cleared first: all the passes need.
func (s *sorter[T]) survey(src []T, below int) summary {
	nd := 0
	if len(src) > tiny && fits[T](len(src)) {
		nd = (below + digitBits - 1) / digitBits
	}
	clear(s.counts[:nd])
	var or, nor, prev, descents uint64
	var kb [block]uint64
	for i := 0; i < len(src); i += block {
		for _, k := range s.read(src, i, &kb) {
			_, down := bits.Sub64(k, prev, 0) // no branch: random keys descend half the time
			or, nor, prev, descents = or|k, nor|^k, k, descents+down
			for d := range nd {
				s.counts[d][k>>(d*digitBits)&(buckets-1)]++
			}
		}
	}
	return summary{or & nor, int(descents)}
}

// sort leaves src stably sorted by key in dst, through spare; f is its
// survey. src may be dst or spare, and is otherwise only read.
func (s *sorter[T]) sort(src, dst, spare []T, f summary) {
	switch n := len(src); {
	case f.descents == 0:
		place(dst, src)
	case n <= tiny: // insertion by key, each key moving with its record
		place(dst, src)
		var kb [block]uint64
		ks := s.read(dst, 0, &kb)
		for i := 1; i < n; i++ {
			for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
				dst[j], dst[j-1], ks[j], ks[j-1] = dst[j-1], dst[j], ks[j-1], ks[j]
			}
		}
	case !fits[T](n):
		s.msd(src, dst, spare, f.diff)
	default:
		s.passes = 0
		for d := range digits {
			if f.diff>>(d*digitBits)&(buckets-1) != 0 {
				s.live[s.passes], s.passes = d, s.passes+1
			}
		}
		a, b := spare, dst // so that the last pass writes dst, if src allows
		if same(src, spare) || !same(src, dst) && s.passes%2 == 1 {
			a, b = dst, spare
		}
		place(dst, s.scatter(src, a, b))
	}
}

// msd is the counting-sort pass over a slab too big for the cache, into
// whichever buffer src is not, on the bits below those all keys share:
// up to msdBits, two to four times the buckets the slab would fill, for
// skew. Each bucket is then sorted into dst, by another pass if need be.
func (s *sorter[T]) msd(src, dst, spare []T, diff uint64) {
	const mask = 1<<msdBits - 1
	nb := min(msdBits, bits.Len(uint(uintptr(len(src))*unsafe.Sizeof(*new(T))/bucketBytes))+1)
	shift := max(bits.Len64(diff)-nb, 0)
	var pos [mask + 1]int
	var kb [block]uint64
	for i := 0; i < len(src); i += block {
		for _, k := range s.read(src, i, &kb) {
			pos[k>>shift&mask]++
		}
	}
	for b, slot := 0, 0; b <= mask; b++ {
		pos[b], slot = slot, slot+pos[b]
	}
	to := spare
	if same(src, spare) {
		to = dst
	}
	for i := 0; i < len(src); i += block {
		for j, k := range s.read(src, i, &kb) {
			to[pos[k>>shift&mask]] = src[i+j]
			pos[k>>shift&mask]++
		}
	}
	for b, lo := 0, 0; b <= mask; lo, b = pos[b], b+1 {
		s.sort(to[lo:pos[b]], dst[lo:pos[b]], spare[lo:pos[b]], s.survey(to[lo:pos[b]], shift))
	}
}

// scatter is the LSD pass loop, the only one: src into a, a into b, b
// into a, … one counting-sort pass per live digit. src is never written
// (unless it is b); the slice the last pass wrote is returned.
func (s *sorter[T]) scatter(src, a, b []T) []T {
	dst, next := a, b
	var kb [block]uint64
	for _, d := range s.live[:s.passes] {
		// Turn the digit's counts into each bucket's first output slot.
		pos, slot := &s.counts[d], 0
		for i, c := range pos {
			pos[i], slot = slot, slot+c
		}
		shift := uint(d * digitBits)
		for i := 0; i < len(src); i += block {
			for j, k := range s.read(src, i, &kb) {
				dst[pos[k>>shift&(buckets-1)]] = src[i+j]
				pos[k>>shift&(buckets-1)]++
			}
		}
		src, dst, next = dst, next, dst
	}
	return src
}
