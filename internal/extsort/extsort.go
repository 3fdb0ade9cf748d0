// Package extsort is the run-file layer of the out-of-core spill tier:
// files that appear at their path only once complete (File), sorted runs
// in the recordio format viewed as segments, and a lazy merge over them,
// a tree of branchless two-way merges with a bounded fan-in (runs.go).
// It holds no sorter — nothing here takes unsorted input. The one
// out-of-core sort is core.SortFileShard, which cuts, exchanges and merges
// runs through this package; the external sort of a single file is that
// sort on a one-rank world. This is the regime the paper's related work
// (TritonSort, NTOSort — §5) addresses; SDS-Sort itself is in-memory.
package extsort

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sdssort/internal/codec"
	"sdssort/internal/recordio"
)

// TempPrefix marks an in-flight (uncommitted) file. A crash can leave
// such files behind; they are never read — committed runs have no
// prefix — and RemoveStaleTemps sweeps them on the next attempt.
const TempPrefix = ".tmp-run-"

// RemoveStaleTemps deletes uncommitted temp files left in dir by a
// crashed writer. Missing dir is not an error.
func RemoveStaleTemps(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("extsort: sweep temps: %w", err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("extsort: sweep temps: %w", err)
			}
		}
	}
	return nil
}

// File is the tier's one file writer — every run and every sorted output
// goes through it. The bytes land in a temp file in the destination's
// directory and become visible at path, mode 0644, only on Commit (the
// checkpoint writer's temp-and-rename idiom), so a reader never observes
// a partial file and a failed or killed writer never truncates an
// existing one. A destination that exists and is not a regular file
// (/dev/null, a FIFO, a symlink) cannot take that commit — renaming over
// it would replace the node itself — and is written in place instead.
type File struct {
	f       *os.File
	buf     *bufio.Writer // nil: unbuffered, the client brings its own
	w       io.Writer     // buf, or f without one
	path    string
	inPlace bool
	done    bool
}

// CreateFile opens a writer targeting path behind a bufBytes buffer.
// bufBytes <= 0 means no buffer at all, for a client that writes whole
// accounted blocks of its own (MergeStream.Stream's output block).
func CreateFile(path string, bufBytes int) (*File, error) {
	fw := &File{path: path}
	var err error
	if st, serr := os.Lstat(path); serr == nil && !st.Mode().IsRegular() {
		fw.inPlace = true
		fw.f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	} else {
		fw.f, err = os.CreateTemp(filepath.Dir(path), TempPrefix+"*")
	}
	if err != nil {
		return nil, fmt.Errorf("extsort: create %s: %w", path, err)
	}
	fw.w = fw.f
	if bufBytes > 0 {
		fw.buf = bufio.NewWriterSize(fw.f, bufBytes)
		fw.w = fw.buf
	}
	return fw, nil
}

// Write appends raw bytes — for a run, records already in wire format: a
// run file IS the codec's wire format, so the exchange's receive side
// spools chunks with no decode.
func (fw *File) Write(b []byte) (int, error) {
	n, err := fw.w.Write(b)
	if err != nil {
		return n, fmt.Errorf("extsort: write %s: %w", fw.path, err)
	}
	return n, nil
}

// Records is the typed view of a buffered File. It encodes into fw's own
// buffer — recordio adopts a large-enough *bufio.Writer as it is — so
// typed writes cross one buffer, the one the caller accounted, and
// Commit's flush covers them.
func Records[T any](fw *File, cd codec.Codec[T]) *recordio.Writer[T] {
	return recordio.NewWriterSize(fw.buf, cd, fw.buf.Size())
}

// Commit flushes, closes and renames into place. On any failure the temp
// is removed and path is untouched.
func (fw *File) Commit() error {
	if fw.done {
		return nil
	}
	fw.done = true
	var err error
	if fw.buf != nil {
		err = fw.buf.Flush()
	}
	if err == nil && !fw.inPlace {
		err = fw.f.Chmod(0o644) // CreateTemp's 0600 is for the temp, not the result
	}
	if cerr := fw.f.Close(); err == nil {
		err = cerr
	}
	if err == nil && !fw.inPlace {
		err = os.Rename(fw.f.Name(), fw.path)
	}
	if err != nil {
		fw.remove()
		return fmt.Errorf("extsort: commit %s: %w", fw.path, err)
	}
	return nil
}

// Abort discards the uncommitted file. Safe after Commit (no-op), so a
// writer's owner can simply defer it.
func (fw *File) Abort() {
	if fw.done {
		return
	}
	fw.done = true
	fw.f.Close()
	fw.remove()
}

func (fw *File) remove() {
	if !fw.inPlace {
		os.Remove(fw.f.Name())
	}
}
