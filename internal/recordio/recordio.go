// Package recordio reads and writes fixed-width record files — the
// on-disk format shared by cmd/sdsgen, cmd/sdssort and cmd/sdsnode. A
// file is a bare concatenation of records in the codec's wire format
// (no header), so files are seekable by record index and shards can be
// read directly, which is how distributed ranks load their slice of a
// dataset without reading the whole file.
package recordio

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"sdssort/internal/codec"
)

// Writer streams records to an io.Writer with buffering.
type Writer[T any] struct {
	w  *bufio.Writer
	cd codec.Codec[T]
}

// NewWriter wraps w.
func NewWriter[T any](w io.Writer, cd codec.Codec[T]) *Writer[T] {
	return NewWriterSize(w, cd, 1<<20)
}

// NewWriterSize wraps w with an explicit buffer size, for callers that
// account their buffers against a memory budget (the spill tier opens
// many writers at once and cannot afford the default 1 MiB each).
func NewWriterSize[T any](w io.Writer, cd codec.Codec[T], bufBytes int) *Writer[T] {
	return &Writer[T]{w: bufio.NewWriterSize(w, max(bufBytes, cd.Size())), cd: cd}
}

// Write appends records in bulk: a zero-copy codec's records go out as
// one write of their View (straight past the buffer when they outsize
// it), any other codec's are bulk-encoded into the buffer's free space,
// a buffer at a time.
func (w *Writer[T]) Write(recs ...T) (err error) {
	if wire, ok := codec.View(w.cd, recs); ok {
		_, err = w.w.Write(wire)
		recs = nil
	}
	for sz := w.cd.Size(); err == nil && len(recs) > 0; {
		if w.w.Available() < sz {
			err = w.w.Flush()
			continue
		}
		k := min(w.w.Available()/sz, len(recs))
		_, err = w.w.Write(codec.EncodeSlice(w.cd, w.w.AvailableBuffer(), recs[:k]))
		recs = recs[k:]
	}
	if err != nil {
		return fmt.Errorf("recordio: write: %w", err)
	}
	return nil
}

// Flush drains the buffer to the underlying writer.
func (w *Writer[T]) Flush() error { return w.w.Flush() }

// ReadBlock fills recs with the next whole records of r and returns how
// many it read. It returns fewer than len(recs) only with an error:
// io.EOF when r ends at a record boundary, an error wrapping
// io.ErrUnexpectedEOF when it ends mid-record, or r's own. A zero-copy
// codec's records are read straight into recs' memory; any other
// codec's bytes pass through wire, a buffer of at least one record
// (shorter, ReadBlock allocates one of up to 1 MiB), and are decoded.
func ReadBlock[T any](r io.Reader, cd codec.Codec[T], recs []T, wire []byte) (int, error) {
	sz := cd.Size()
	if view, ok := codec.View(cd, recs); ok {
		k, err := io.ReadFull(r, view)
		return k / sz, blockErr(err, k%sz, sz)
	}
	if len(wire) < sz {
		wire = make([]byte, min(len(recs), max(1<<20/sz, 1))*sz)
	}
	n := 0
	for n < len(recs) {
		k, err := io.ReadFull(r, wire[:min(len(wire)/sz, len(recs)-n)*sz])
		codec.DecodeAppend(cd, recs[n:n], wire[:k/sz*sz])
		n += k / sz
		if err != nil {
			return n, blockErr(err, k%sz, sz)
		}
	}
	return n, nil
}

// blockErr is ReadBlock's error for a read that stopped partial bytes
// into a record: io.EOF at a record boundary.
func blockErr(err error, partial, sz int) error {
	switch {
	case err == nil || err == io.EOF:
		return err
	case err != io.ErrUnexpectedEOF:
		return fmt.Errorf("recordio: %w", err)
	case partial == 0:
		return io.EOF
	default:
		return fmt.Errorf("recordio: %w (file must be whole %d-byte records)", err, sz)
	}
}

// WriteFile writes recs to path, replacing any existing file.
func WriteFile[T any](path string, cd codec.Codec[T], recs []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f, cd)
	if err := w.Write(recs...); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads every record in path: its one shard of one.
func ReadFile[T any](path string, cd codec.Codec[T]) ([]T, error) {
	return ReadShard(path, cd, 0, 1)
}

// Count returns the number of whole records in path.
func Count[T any](path string, cd codec.Codec[T]) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	size := int64(cd.Size())
	if st.Size()%size != 0 {
		return 0, fmt.Errorf("recordio: %s is %d bytes, not a multiple of the %d-byte record", path, st.Size(), size)
	}
	return st.Size() / size, nil
}

// ShardRange is the shard layout of a dataset file: shard `rank` of
// `of` equal contiguous shards of total records is [lo, hi), the last
// shard absorbing the remainder. Every reader of a shared file — the
// resident loader, the streamed sort — cuts it by this one rule.
func ShardRange(total int64, rank, of int) (lo, hi int64) {
	per := total / int64(of)
	lo = int64(rank) * per
	if rank == of-1 {
		return lo, total
	}
	return lo, lo + per
}

// ReadShard loads shard `rank` of `of` of path (see ShardRange) into a
// slice presized to it, seeking directly to the shard's byte range. This
// is how a distributed rank loads its slice of a shared dataset file.
func ReadShard[T any](path string, cd codec.Codec[T], rank, of int) ([]T, error) {
	if rank < 0 || of <= 0 || rank >= of {
		return nil, fmt.Errorf("recordio: shard %d of %d out of range", rank, of)
	}
	total, err := Count[T](path, cd)
	if err != nil {
		return nil, err
	}
	lo, hi := ShardRange(total, rank, of)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sz := int64(cd.Size())
	recs := make([]T, hi-lo)
	n, err := ReadBlock(io.NewSectionReader(f, lo*sz, (hi-lo)*sz), cd, recs, nil)
	if err == io.EOF {
		err = fmt.Errorf("recordio: %s ends %d records into a %d-record shard", path, n, hi-lo)
	}
	if err != nil {
		return nil, err
	}
	return recs, nil
}
