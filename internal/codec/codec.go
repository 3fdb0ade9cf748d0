// Package codec serialises fixed-width records for the all-to-all
// exchange. The communication layer moves []byte, as MPI does; codecs
// are the typed boundary between the generic sorting algorithms and the
// wire. All records in the paper's workloads are fixed width (a key plus
// an optional fixed payload), so the interface is fixed-width: this keeps
// the displacement arithmetic of the exchange exact (bytes = count×Size).
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec converts single records to and from a fixed-width wire format.
// Implementations must be stateless and safe for concurrent use.
type Codec[T any] interface {
	// Size is the exact number of bytes Marshal writes per record.
	Size() int
	// Marshal writes rec into dst[:Size()]. dst must have at least
	// Size() bytes.
	Marshal(dst []byte, rec T)
	// Unmarshal reads one record from src[:Size()].
	Unmarshal(src []byte) T
}

// EncodeSlice appends the wire form of recs to dst and returns the
// extended buffer. Zero-copy-capable codecs (see IsZeroCopy) take a
// single-memcpy fast path; the wire bytes are identical either way.
func EncodeSlice[T any](c Codec[T], dst []byte, recs []T) []byte {
	if wire, ok := View(c, recs); ok {
		return append(dst, wire...)
	}
	sz := c.Size()
	off := len(dst)
	dst = append(dst, make([]byte, sz*len(recs))...)
	for _, r := range recs {
		c.Marshal(dst[off:off+sz], r)
		off += sz
	}
	return dst
}

// DecodeSlice decodes all records in src, which must be a whole number
// of records. Zero-copy-capable codecs decode by one memcpy into the
// fresh slice instead of per-record Unmarshal calls.
func DecodeSlice[T any](c Codec[T], src []byte) ([]T, error) {
	sz := c.Size()
	if len(src)%sz != 0 {
		return nil, fmt.Errorf("codec: buffer length %d is not a multiple of record size %d", len(src), sz)
	}
	if IsZeroCopy(c) {
		return appendRaw(make([]T, 0, len(src)/sz), src, sz), nil
	}
	out := make([]T, 0, len(src)/sz)
	for off := 0; off < len(src); off += sz {
		out = append(out, c.Unmarshal(src[off:off+sz]))
	}
	return out, nil
}

// DecodeAppend decodes src into dst (appending) and returns the extended
// slice, avoiding an allocation when dst has capacity. Zero-copy-capable
// codecs append by one memcpy.
func DecodeAppend[T any](c Codec[T], dst []T, src []byte) ([]T, error) {
	sz := c.Size()
	if len(src)%sz != 0 {
		return dst, fmt.Errorf("codec: buffer length %d is not a multiple of record size %d", len(src), sz)
	}
	if IsZeroCopy(c) {
		return appendRaw(dst, src, sz), nil
	}
	for off := 0; off < len(src); off += sz {
		dst = append(dst, c.Unmarshal(src[off:off+sz]))
	}
	return dst, nil
}

// Float64 encodes float64 keys as little-endian IEEE-754.
type Float64 struct{}

func (Float64) Size() int { return 8 }

// ZeroCopy: the wire form is the float's memory image (LE IEEE-754).
func (Float64) ZeroCopy() bool { return true }

func (Float64) Marshal(dst []byte, v float64) {
	binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
}

func (Float64) Unmarshal(src []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src))
}

// Uint64Key: see Float64Key.
func (Float64) Uint64Key(v float64) uint64 { return Float64Key(v) }
func (Float64) KeyField() (int, KeyEnc)    { return 0, KeyFloat }

// Float64Key maps a float64 to a uint64 whose unsigned order is the
// float order: negatives have every bit flipped, the rest only the
// sign bit. -0 takes +0's key, so floats that compare equal have equal
// keys. NaNs land past the infinities on the side of their sign bit,
// which no comparator agrees with everywhere; the agreement sweep of
// the radix dispatch decides whether the caller's does.
func Float64Key(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits == 1<<63 {
		bits = 0
	}
	return bits ^ (uint64(int64(bits)>>63) | 1<<63) // no branch on the sign
}

// KeyEnc is how a key field's bits decode to the Uint64Key: as they are,
// with the sign bit flipped (two's complement), or by Float64Key.
type KeyEnc uint8

const (
	KeyUint KeyEnc = iota
	KeyInt
	KeyFloat
)

// Decode maps a key field's bits to the key.
func (e KeyEnc) Decode(bits uint64) uint64 {
	switch e {
	case KeyInt:
		return bits ^ 1<<63
	case KeyFloat:
		return Float64Key(math.Float64frombits(bits))
	}
	return bits
}

// Uint64 encodes uint64 keys little-endian.
type Uint64 struct{}

func (Uint64) Size() int                    { return 8 }
func (Uint64) Marshal(dst []byte, v uint64) { binary.LittleEndian.PutUint64(dst, v) }
func (Uint64) Unmarshal(src []byte) uint64  { return binary.LittleEndian.Uint64(src) }
func (Uint64) ZeroCopy() bool               { return true }

// Uint64Key: the record is its own radix key.
func (Uint64) Uint64Key(v uint64) uint64 { return v }
func (Uint64) KeyField() (int, KeyEnc)   { return 0, KeyUint }

// Int64 encodes int64 keys little-endian (two's complement).
type Int64 struct{}

func (Int64) Size() int                   { return 8 }
func (Int64) Marshal(dst []byte, v int64) { binary.LittleEndian.PutUint64(dst, uint64(v)) }
func (Int64) Unmarshal(src []byte) int64  { return int64(binary.LittleEndian.Uint64(src)) }
func (Int64) ZeroCopy() bool              { return true }

// Uint64Key flips the sign bit so unsigned order matches signed order.
func (Int64) Uint64Key(v int64) uint64 { return uint64(v) ^ (1 << 63) }
func (Int64) KeyField() (int, KeyEnc)  { return 0, KeyInt }

// Funcs adapts three functions into a Codec, for ad-hoc record types.
type Funcs[T any] struct {
	Width     int
	MarshalFn func(dst []byte, rec T)
	UnmarshFn func(src []byte) T
	// ZeroCopyOK, when set, asserts that MarshalFn writes exactly the
	// record's little-endian memory image (fixed payload, no padding,
	// fields in declaration order) — the zero-copy contract of
	// IsZeroCopy. Leave false for any codec that reorders, omits or
	// transforms fields.
	ZeroCopyOK bool
}

func (f Funcs[T]) Size() int               { return f.Width }
func (f Funcs[T]) Marshal(dst []byte, r T) { f.MarshalFn(dst, r) }
func (f Funcs[T]) Unmarshal(src []byte) T  { return f.UnmarshFn(src) }
func (f Funcs[T]) ZeroCopy() bool          { return f.ZeroCopyOK }
