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

// Reader streams records from an io.Reader with buffering.
type Reader[T any] struct {
	r   *bufio.Reader
	cd  codec.Codec[T]
	buf []byte
}

// NewReader wraps r behind a 1 MiB buffer (at least one record).
func NewReader[T any](r io.Reader, cd codec.Codec[T]) *Reader[T] {
	return &Reader[T]{
		r:   bufio.NewReaderSize(r, max(1<<20, cd.Size())),
		cd:  cd,
		buf: make([]byte, cd.Size()),
	}
}

// Read returns the next record, or io.EOF at a clean end of stream. A
// trailing partial record is reported as ErrUnexpectedEOF.
func (r *Reader[T]) Read() (T, error) {
	var zero T
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			return zero, io.EOF
		}
		return zero, fmt.Errorf("recordio: %w (file must be whole %d-byte records)", err, r.cd.Size())
	}
	return r.cd.Unmarshal(r.buf), nil
}

// ReadAll drains the stream.
func (r *Reader[T]) ReadAll() ([]T, error) {
	return r.appendN(nil, -1)
}

// appendN appends the stream's next n records to out (n < 0: all of
// them), decoding whole buffered spans at once. A stream that ends
// before n records, or mid-record, is an error.
func (r *Reader[T]) appendN(out []T, n int64) ([]T, error) {
	sz := int64(r.cd.Size())
	for n != 0 {
		span, err := r.r.Peek(r.r.Size())
		whole := int64(len(span)) / sz * sz
		if n > 0 {
			whole = min(whole, n*sz)
			n -= whole / sz
		}
		out, _ = codec.DecodeAppend(r.cd, out, span[:whole])
		r.r.Discard(int(whole))
		switch {
		case err == nil || n == 0:
		case err != io.EOF:
			return nil, fmt.Errorf("recordio: %w", err)
		case n > 0 || int64(len(span)) > whole:
			return nil, fmt.Errorf("recordio: %w (file must be whole %d-byte records)", io.ErrUnexpectedEOF, sz)
		default:
			return out, nil
		}
	}
	return out, nil
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
	if _, err := f.Seek(lo*int64(cd.Size()), io.SeekStart); err != nil {
		return nil, fmt.Errorf("recordio: seek: %w", err)
	}
	return NewReader(f, cd).appendN(make([]T, 0, hi-lo), hi-lo)
}
