package codec

import "unsafe"

// The zero-copy fast path. A codec qualifies when the wire form of a
// record is byte-for-byte its in-memory representation: fixed width, no
// padding, fields in declaration order, little-endian integers. For
// such codecs the encode step of the exchange degenerates to slicing
// the record slab and the decode step to one memcpy into the receive
// slab — no per-record Marshal/Unmarshal, no pooled staging copies.
//
// The contract has three legs, all checked at runtime by IsZeroCopy:
//
//  1. The codec declares the property (ZeroCopyCapable). Declaring it
//     asserts that Marshal(dst, r) produces exactly the bytes of r's
//     memory image on a little-endian machine, and Unmarshal inverts
//     it. All built-in codecs whose wire layout mirrors their struct
//     layout declare it.
//  2. The host is little-endian (the wire format is little-endian, so
//     on a big-endian host the memory image differs and every path
//     falls back to the marshal loop).
//  3. unsafe.Sizeof(T) == Size(): the Go in-memory record is exactly
//     as wide as the wire record, i.e. the struct has no padding the
//     wire format would not carry.
//
// Records, View's inverse, adds a fourth: the bytes are whole records
// starting at an address aligned for T.
//
// Aliasing rule: a View or Records aliases the storage it views. Callers
// handing a view to a transport must not mutate the records until the
// send has been consumed, and must not retain received views past their
// Drain.

// hostLittleEndian reports whether this machine lays integers out in
// little-endian byte order — the byte order of the wire format.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ZeroCopyCapable is an optional codec capability: implementing it with
// a true return asserts that the codec's wire format is byte-identical
// to the record's in-memory representation on little-endian hardware.
type ZeroCopyCapable interface {
	ZeroCopy() bool
}

// IsZeroCopy reports whether c qualifies for the zero-copy fast path on
// this machine: the codec declares the capability, the host is
// little-endian, and the in-memory record width equals the wire width.
func IsZeroCopy[T any](c Codec[T]) bool {
	zc, ok := any(c).(ZeroCopyCapable)
	if !ok || !zc.ZeroCopy() || !hostLittleEndian {
		return false
	}
	var z T
	return int(unsafe.Sizeof(z)) == c.Size()
}

// View returns the wire form of recs as a byte slice aliasing recs'
// storage — zero copies — or (nil, false) when c does not qualify for
// zero copy on this machine. The returned slice has full capacity, so
// appending to it never scribbles past the records.
func View[T any](c Codec[T], recs []T) ([]byte, bool) {
	if !IsZeroCopy(c) {
		return nil, false
	}
	return sliceBytes(recs), true
}

// Records is View's inverse: b viewed as records, so writing them fills
// b with their wire form. It returns (nil, false) when a leg fails — the
// codec does not qualify, b is not whole records, or b is misaligned for
// T — and the caller takes the marshal path.
func Records[T any](c Codec[T], b []byte) ([]T, bool) {
	var z T
	p := unsafe.Pointer(unsafe.SliceData(b))
	if !IsZeroCopy(c) || len(b)%c.Size() != 0 || len(b) > 0 && uintptr(p)%unsafe.Alignof(z) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/c.Size()), true
}

// sliceBytes reinterprets recs' backing array as bytes. len == cap, so
// an append on the result always reallocates instead of growing into
// adjacent memory.
func sliceBytes[T any](recs []T) []byte {
	if len(recs) == 0 {
		return []byte{}
	}
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(recs)*int(unsafe.Sizeof(z)))
}

// appendRaw bulk-decodes wire (a whole number of records of size sz)
// onto dst by a single memcpy — none when wire already is the memory
// just past dst's end, as a chunk received in place is. Caller
// guarantees the codec qualifies for zero copy and len(wire)%sz == 0.
func appendRaw[T any](dst []T, wire []byte, sz int) []T {
	n := len(wire) / sz
	if n == 0 {
		return dst
	}
	if cap(dst)-len(dst) < n {
		grown := make([]T, len(dst), max(2*cap(dst), len(dst)+n))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(dst)+n]
	if tail := sliceBytes(dst[len(dst)-n:]); unsafe.SliceData(tail) != unsafe.SliceData(wire) {
		copy(tail, wire)
	}
	return dst
}

// Uint64Keyer is an optional codec capability: the codec's records sort
// by an integer key, and Uint64Key extracts it as a uint64 whose
// unsigned order equals the codec's canonical record order. It is what
// lets local ordering, stable or not, dispatch to the LSD radix kernel
// instead of a comparison sort; callers must still verify the supplied
// comparator agrees with the key order (radix.Dispatch does, and a
// stable sort it holds to the stricter rule: comparator-equal exactly
// where key-equal).
type Uint64Keyer[T any] interface {
	Uint64Key(rec T) uint64
}

// Uint64KeyOf returns c's integer key extractor, if it has one.
func Uint64KeyOf[T any](c Codec[T]) (func(T) uint64, bool) {
	k, ok := any(c).(Uint64Keyer[T])
	if !ok {
		return nil, false
	}
	return k.Uint64Key, true
}

// KeyFielder is an optional capability of a zero-copy Uint64Keyer, its
// key_index and key_value_type as vpic-sorter has them: the radix kernel
// reads the key in place, the eight bytes at offset decoded by enc.
type KeyFielder interface {
	KeyField() (offset int, enc KeyEnc)
}
