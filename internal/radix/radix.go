// Package radix is mostly the local sort's radix kernel: Dispatch orders
// a keyed codec's records by their integer key, read in place from the
// field the codec declares (codec.KeyFielder) or through a key func, in
// buckets balanced to fit the cache — each sorted, on a digit grid
// anchored at the highest bit its keys differ in, by counting passes on
// its top two digits and an insertion pass, or by the LSD pass loop — and
// holds the result to the caller's comparator.
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
	"sync"
	"unsafe"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/psort"
)

// topBits is the width of the distribution histogram. Floating-point
// keys concentrate in few exponent values, so the histogram needs to see
// mantissa bits beyond sign+exponent (12 bits) to split the [0.5, 1)
// mass across ranks; 14 bits gives 2 mantissa bits while keeping the
// reduced histogram at 128KB.
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
	global, err := c.AllreduceInt64s(local, func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, fmt.Errorf("radix: histogram reduce: %w", err)
	}
	var total int64
	for _, v := range global {
		total += v
	}

	// Assign contiguous bucket ranges to ranks, balancing record counts:
	// rank j's range ends with the bucket that brings the running count
	// to j+1 p-ths of the total. Route each record to its range's owner.
	owner := make([]int, numBuckets)
	var running int64
	for b, j := 0, 0; b < numBuckets; b++ {
		owner[b] = j
		running += global[b]
		for j < p-1 && running >= int64(j+1)*total/int64(p) {
			j++
		}
	}
	outParts := make([][]T, p)
	for _, rec := range data {
		dst := owner[key(rec)>>(64-topBits)]
		outParts[dst] = append(outParts[dst], rec)
	}
	sendParts := make([][]byte, p)
	for dst, part := range outParts {
		// Zero-copy codecs send the bucket slab itself, untouched until the exchange returns.
		var ok bool
		if sendParts[dst], ok = codec.View(cd, part); !ok {
			sendParts[dst] = codec.EncodeSlice(cd, nil, part)
		}
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

// Verdict is what Dispatch did with data.
type Verdict uint8

const (
	Keyless Verdict = iota // no integer key, or 2³² records or more; data as it came
	Sorted                 // the block holds data's records in cmp order
	Refused                // a sweep found cmp ordering otherwise; data as it came
	Gated                  // the run gate fired; data as it came
)

// Stats is what the kernel did on its way to a verdict. Buckets whose
// keys differ in more than two digits are Finished, Declined or Overrun.
type Stats struct {
	Spare    int // records a heavy bucket of distinct keys took as its spare
	Finished int // buckets the insertion pass finished after their top two digits
	Declined int // buckets whose top two digits' counts foretold too many moves
	Overrun  int // buckets whose insertion ran past its budget
}

// Dispatch sorts data by cmp with the radix kernel when cd has an integer
// key (codec.Uint64Keyer) that the kernel's sweeps find orders records as
// cmp does. It never writes data: the block is data itself when its keys
// ascend, or lands in *scratch, grown to hold it and a bucket spare, whose
// place the spent data, capped, takes. Gated: runs > 0 and
// psort.Sortedness over the keys (over cmp, without a key) is at least
// runs.
func Dispatch[T any](data []T, scratch *[]T, cd codec.Codec[T], cmp func(a, b T) int, stable bool, runs float64) (block []T, v Verdict, st Stats) {
	key, ok := codec.Uint64KeyOf(cd)
	if !ok || uint64(len(data)) > math.MaxUint32 { // the split counts in 32 bits
		if runs > 0 && psort.Sortedness(data, cmp) >= runs {
			return data, Gated, st
		}
		return data, Keyless, st
	}
	s := sorter[T]{fn: key, cmp: cmp, stable: stable}
	if kf, ok := any(cd).(codec.KeyFielder); ok && codec.IsZeroCopy(cd) {
		if off, enc := kf.KeyField(); off >= 0 && off+8 <= cd.Size() {
			s.fn, s.off, s.enc = nil, uintptr(off), enc // the record's memory image holds it
		}
	}
	f := s.survey(data, whole)
	if runs > 0 && float64(max(len(data), 1))/float64(f.descents+1) >= runs {
		return data, Gated, st
	}
	block, ok = s.into(data, scratch, f)
	st = Stats{cap(s.heavy), s.finished, s.declined, s.overrun}
	if !ok {
		return data, Refused, st
	}
	return block, Sorted, st
}

// ScratchCap is the capacity Dispatch grows a scratch to for n records:
// the block and a bucket spare.
func ScratchCap[T any](n int) int { return n + min(n, room[T]()) }

// LSDSort sorts data, under 2³² records, in place, stably by key.
func LSDSort[T any](data []T, key func(T) uint64) {
	s, scratch := sorter[T]{fn: key}, []T(nil)
	block, _ := s.into(data, &scratch, s.survey(data, whole))
	place(data, block)
}

// The kernel reads the keys once for the bits they differ in and their
// descents. Up to bucketBytes is one bucket; more takes one split pass on a
// window of windowBits key bits into buckets that fit, but for single window
// values, each sorted in cache (scatter) or, up to tiny records, by
// insertion. bucketBytes keeps a bucket, its spare and the histograms in
// a core's L2 (256 KiB to 1 MiB measured alike on a 2-vCPU Xeon, 2 MiB L2).
// Loops read keys a block at a time onto the stack; only read and key call
// fn. Digits lie on a grid anchored at the bit a bucket's keys agree from:
// a split's bucket's is where its window value starts, a whole key's
// (surveyed at whole) the top of its keys' diff.
const (
	digitBits   = 11
	digits      = (64 + digitBits - 1) / digitBits
	whole       = digits * digitBits
	buckets     = 1 << digitBits
	msdBits     = 8
	windowBits  = 16
	bucketBytes = 512 << 10
	tiny        = 32 // at most a block
	block       = 64
)

// sorter is one kernel call: where it reads a key — in place, off into
// the record (fn nil), or through fn — how it sweeps (cmp nil: not at
// all), its spares, the last record swept, the digits' histograms, and
// the buckets whose insertion pass finished, was declined or overran.
type sorter[T any] struct {
	fn       func(T) uint64
	off      uintptr
	enc      codec.KeyEnc
	cmp      func(a, b T) int
	stable   bool
	tail     []T // a bucket's spare: the scratch past the block, if it has room
	heavy    []T // a heavy bucket's spare, taken when one has distinct keys
	last     *T  // the last record swept, keyed lastKey
	lastKey  uint64
	counts   [digits][buckets]uint32
	finished int
	declined int
	overrun  int
}

// read returns the keys of src[i:], at most a block of them, in kb. It
// picks the key source once per block; each loop then reads one kind.
func (s *sorter[T]) read(src []T, i int, kb *[block]uint64) []uint64 {
	src = src[i:min(i+block, len(src))]
	ks := kb[:len(src)]
	if s.fn != nil || len(src) == 0 {
		for j := range ks {
			ks[j] = s.fn(src[j])
		}
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

// key reads r's key as read does.
func (s *sorter[T]) key(r *T) uint64 {
	if s.fn != nil {
		return s.fn(*r)
	}
	return s.enc.Decode(*(*uint64)(unsafe.Add(unsafe.Pointer(r), s.off)))
}

// summary is what a read learns: the key bits that differ, the descents,
// the bit the keys agree from, which anchors the digits, and the lowest
// digit counted (places(below): none).
type summary struct {
	diff     uint64
	descents int
	below    int
	counted  int
}

// room is how many records make a bucket.
func room[T any]() int { return bucketBytes / max(int(unsafe.Sizeof(*new(T))), 1) }

func same[T any](a, b []T) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

func place[T any](dst, src []T) {
	if !same(dst, src) {
		copy(dst, src)
	}
}

// into sorts data by key into *scratch, grown to hold the block, and a
// bucket spare past it or apart, and hands data back as *scratch; data is
// the block when its keys ascend. ok is false when a sweep refused.
func (s *sorter[T]) into(data []T, scratch *[]T, f summary) (block []T, ok bool) {
	if f.descents == 0 {
		return data, s.sweep(data)
	}
	n, spare := len(data), min(len(data), room[T]())
	if cap(*scratch) < n {
		*scratch = make([]T, ScratchCap[T](n))
	}
	if block, s.tail = (*scratch)[:n], (*scratch)[n:cap(*scratch)]; len(s.tail) < spare {
		s.tail = make([]T, spare)
	}
	if !s.sort(data, block, f) {
		return data, false
	}
	*scratch = data[:n:n]
	return block, true
}

// survey reads src's keys once. When src is a split's bucket with passes
// to run, whose keys agree from bit below up and spread just below it, it
// also counts the histograms of the top two digits below, cleared first,
// which its top two live digits almost always are. A whole key's keys
// agree from the top of their diff, where its digits anchor; it counts
// none, and scatter counts the top two live ones there.
func (s *sorter[T]) survey(src []T, below int) summary {
	from, to := 0, 0
	if below < whole && len(src) > tiny && len(src) <= room[T]() {
		from, to = max(places(below)-2, 0), places(below)
	}
	clear(s.counts[from:to])
	var or, nor, prev, descents uint64
	var kb [block]uint64
	for i := 0; i < len(src); i += block {
		ks := s.read(src, i, &kb)
		for _, k := range ks {
			_, down := bits.Sub64(k, prev, 0) // no branch: random keys descend half the time
			or, nor, prev, descents = or|k, nor|^k, k, descents+down
		}
		s.tally(ks, below, from, to)
	}
	if below == whole {
		below = bits.Len64(or & nor)
		from = places(below)
	}
	return summary{or & nor, int(descents), below, from}
}

// count reads src's keys once more for the histograms of digits from up
// to, cleared first, which the survey left out.
func (s *sorter[T]) count(src []T, below, from, to int) {
	clear(s.counts[from:to])
	var kb [block]uint64
	for i := 0; i < len(src); i += block {
		s.tally(s.read(src, i, &kb), below, from, to)
	}
}

// tally adds a block of keys to the histograms of digits from up to, a
// digit at a time.
func (s *sorter[T]) tally(ks []uint64, below, from, to int) {
	for d := from; d < to; d++ {
		c := &s.counts[d]
		shift, _ := digit(below, d)
		for _, k := range ks {
			c[k>>shift&(buckets-1)]++
		}
	}
}

// places is how many digits lie below bit below on its grid.
func places(below int) int { return (below + digitBits - 1) / digitBits }

// digit is digit d's place on the grid anchored at below, 0 the lowest:
// the shift to its histogram index and how many bits up from there are
// its own. The top digit ends at below, each next one digitBits lower;
// the lowest, at bit 0, owns what is left and indexes a few bits of the
// one above too, which that digit's pass then orders again.
func digit(below, d int) (shift, width uint) {
	lo := below - (places(below)-d)*digitBits
	return uint(max(lo, 0)), uint(min(lo+digitBits, digitBits))
}

// sort leaves src's records, stably sorted by key, in dst and sweeps them
// there: by insertion up to tiny records, by split past a bucket, by
// scatter in between. f is src's survey. src may be dst, and is otherwise
// only read.
func (s *sorter[T]) sort(src, dst []T, f summary) bool {
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
	case n > room[T]():
		return s.split(src, dst, f.diff)
	default:
		s.scatter(src, dst, s.tail[:n], f)
	}
	return s.sweep(dst)
}

// tables are a split's window counts, then value buckets, and bucket slots.
type tables struct {
	win [1 << windowBits]uint32
	pos [1 << windowBits]int
}

var tablePool = sync.Pool{New: func() any { return new(tables) }}

// split is the one pass over a slab too big for the cache: it scatters
// src by bucket (plan) into dst, then sorts each bucket into dst in turn,
// in cache. Only a bucket of one window value can exceed bucketBytes: its
// keys are all equal, or it splits again, out of dst into the heavy spare
// and back, taking the spare's first records: buckets the enclosing
// splits are done with.
func (s *sorter[T]) split(src, dst []T, diff uint64) bool {
	t := tablePool.Get().(*tables)
	shift, mask, below, n := s.plan(src, diff, t)
	to := dst
	if same(src, dst) {
		if cap(s.heavy) < len(src) {
			s.heavy = make([]T, len(src))
		}
		to = s.heavy[:len(src)]
	}
	var kb [block]uint64
	for i := 0; i < len(src); i += block {
		for j, k := range s.read(src, i, &kb) {
			b := t.win[k>>shift&mask]
			to[t.pos[b]] = src[i+j]
			t.pos[b]++
		}
	}
	ok := true
	for b, lo := 0, 0; ok && b < n; lo, b = t.pos[b], b+1 {
		ok = s.sort(to[lo:t.pos[b]], dst[lo:t.pos[b]], s.survey(to[lo:t.pos[b]], below))
	}
	tablePool.Put(t)
	return ok
}

// plan counts src's window, the windowBits key bits just below those all
// keys share, and numbers its n buckets: runs of adjacent window values
// within the aligned buckets an MSD pass of up to msdBits would make (two
// to four times the buckets the slab fills), cut greedily at bucketBytes,
// so evenly spread keys keep the aligned buckets and their LSD passes.
// Key k's bucket is t.win[k>>shift&mask], its first slot t.pos; bucket
// keys agree from bit below up.
func (s *sorter[T]) plan(src []T, diff uint64, t *tables) (shift uint, mask uint64, below, n int) {
	top := bits.Len64(diff)
	shift, mask = uint(max(top-windowBits, 0)), 1<<min(top, windowBits)-1
	clear(t.win[:mask+1])
	var kb [block]uint64
	for i := 0; i < len(src); i += block {
		for _, k := range s.read(src, i, &kb) {
			t.win[k>>shift&mask]++
		}
	}
	nb := min(msdBits, bits.Len(uint(len(src)/room[T]()))+1)
	width, fill, slot := max(int(mask+1)>>nb, 1), 0, 0
	for v, c := range t.win[:mask+1] {
		if v&(width-1) == 0 || fill > 0 && fill+int(c) > room[T]() {
			n, fill = n+1, 0
			t.pos[n-1] = slot
		}
		t.win[v], fill, slot = uint32(n-1), fill+int(c), slot+int(c)
	}
	return shift, mask, int(shift) + bits.Len(uint(width-1)), n
}

// scatter sorts a bucket of src by key into dst through spare. At most
// two live digits — digits the keys differ in — take the LSD pass loop.
// More take two counting passes on the top two, src to spare to dst, and
// finish by insertion, unless the top two's counts say the insertion
// would move more than len(src) records; then, and when the insertion
// overruns its budget, the whole LSD loop sorts the bucket, the second
// time over dst, the top two digits' counts restored from the slots their
// passes left. Live digits below those f counted are counted by one more
// read before the passes or the LSD loop need them: of a whole key, whose
// survey counted none, the top two before their passes, the rest only if
// the LSD loop runs. Both stages are stable. src is only read, unless it
// is dst.
func (s *sorter[T]) scatter(src, dst, spare []T, f summary) {
	live := make([]int, 0, digits)
	for d := range places(f.below) {
		if shift, width := digit(f.below, d); f.diff>>shift&(1<<width-1) != 0 {
			live = append(live, d)
		}
	}
	top, counted := live[max(len(live)-2, 0):], f.counted
	if top[0] < counted {
		s.count(src, f.below, top[0], counted)
		counted = top[0]
	}
	switch {
	case len(top) == len(live): // the LSD loop alone
	case s.moves(top, len(src)) > len(src):
		s.declined++
	default:
		s.lsd(src, dst, spare, top, f.below)
		if s.finish(dst) {
			s.finished++
			return
		}
		s.overrun++
		for _, d := range top {
			for i := buckets - 1; i > 0; i-- {
				s.counts[d][i] -= s.counts[d][i-1]
			}
		}
		src = dst
	}
	if live[0] < counted {
		s.count(src, f.below, live[0], counted)
	}
	s.lsd(src, dst, spare, live, f.below)
}

// lsd is the LSD pass loop: one counting-sort pass per digit in live,
// lowest first, from src into dst through spare, ordered so that the last
// pass writes dst if src allows, else copied there once. A pass turns its
// digit's counts into each bucket's slot past its last record.
func (s *sorter[T]) lsd(src, dst, spare []T, live []int, below int) {
	out, next := spare, dst
	if !same(src, dst) && len(live)%2 == 1 {
		out, next = dst, spare
	}
	var kb [block]uint64
	for _, d := range live {
		// Turn the digit's counts into each bucket's first output slot.
		pos, slot := &s.counts[d], uint32(0)
		for i, c := range pos {
			pos[i], slot = slot, slot+c
		}
		shift, _ := digit(below, d)
		for i := 0; i < len(src); i += block {
			for j, k := range s.read(src, i, &kb) {
				out[pos[k>>shift&(buckets-1)]] = src[i+j]
				pos[k>>shift&(buckets-1)]++
			}
		}
		src, out, next = out, next, out
	}
	place(dst, src)
}

// moves estimates the records the insertion finish moves after passes on
// digits top: a group of g records that tie in them, in source order
// below, takes about g²/4, and with the digits taken as independent the
// groups' g² sum to the product, over the digits, of Σc²/n over each
// digit's counts c. Digits that tie together more than their counts show
// escape the estimate; the insertion's budget catches them.
func (s *sorter[T]) moves(top []int, n int) int {
	est := 1
	for _, d := range top {
		sq := 0
		for _, c := range s.counts[d] {
			sq += int(c) * int(c)
		}
		est *= sq / n
	}
	return est / 4
}

// finish is the insertion pass by key over b, which the top two digits'
// passes left nearly sorted: each record moves down past the larger keys
// before it, re-read one at a time. It stops once it has moved 2·len(b)
// records, b then a permutation in which no record passed an equal key,
// and reports whether b is sorted.
func (s *sorter[T]) finish(b []T) bool {
	budget := 2 * len(b)
	var top uint64 // the largest key so far, b[i-1]'s
	var kb [block]uint64
	for i := 0; i < len(b); i += block {
		for j, k := range s.read(b, i, &kb) {
			if k >= top {
				top = k
				continue
			}
			at := i + j
			r := b[at]
			b[at], at, budget = b[at-1], at-1, budget-1
			for at > 0 && budget > 0 && s.key(&b[at-1]) > k {
				b[at], at, budget = b[at-1], at-1, budget-1
			}
			b[at] = r
			if budget <= 0 {
				return false
			}
		}
	}
	return true
}

// sweep holds b, the block's next key-sorted bucket, to cmp, seam to the
// bucket before included: psort.IsSorted or, under stable, the agreement
// rule — every adjacent pair in cmp order, cmp-equal exactly when key-equal.
// Over adjacent pairs, the buckets' pairs and the seams are the block's.
func (s *sorter[T]) sweep(b []T) bool {
	if len(b) == 0 || s.cmp == nil {
		return true
	}
	if !s.stable {
		ok := (s.last == nil || s.cmp(*s.last, b[0]) <= 0) && psort.IsSorted(b, s.cmp)
		s.last = &b[len(b)-1]
		return ok
	}
	var kb [block]uint64
	for i := 0; i < len(b); i += block {
		for j, k := range s.read(b, i, &kb) {
			if s.last != nil {
				if c := s.cmp(*s.last, b[i+j]); c > 0 || (c == 0) != (k == s.lastKey) {
					return false
				}
			}
			s.last, s.lastKey = &b[i+j], k
		}
	}
	return true
}
