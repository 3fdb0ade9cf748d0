package extsort

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"sdssort/internal/codec"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
	"sdssort/internal/recordio"
)

// MergeOptions configures a lazy merge over run files.
type MergeOptions struct {
	// MaxFanIn caps how many run cursors a single merge pass holds
	// open; when there are more runs, batches are pre-merged into
	// intermediate runs first (consuming — deleting — their inputs).
	// At least 2: a one-way "merge" could never reduce the run count.
	MaxFanIn int
	// BufBytes sizes each run's share of a merge. openCursors reserves
	// one per run from Mem, holding the run's current block of records
	// and at most one merge node's buffer; a pre-merge pass reserves
	// one more for its output block. At least one record.
	BufBytes int
	// Mem accounts the cursor buffers; nil means unlimited.
	Mem *memlimit.Gauge
	// TempDir holds intermediate pre-merge runs; defaults to the
	// directory of the first run.
	TempDir string
	// Stats accrues merge-pass and intermediate-run counters.
	Stats *metrics.SpillStats
}

// RunSegment is one sorted stretch of a record file: records [Lo, Hi)
// by record index, Hi < 0 meaning through end of file. The spill
// driver's send side merges per-destination segments of its local runs
// without materialising them, and a rank's shard of an input file is a
// segment too (of unsorted records, read by recordio.ReadBlock).
type RunSegment struct {
	Path   string
	Lo, Hi int64
}

// WholeRuns views run files as full-file segments.
func WholeRuns(runs []string) []RunSegment {
	segs := make([]RunSegment, len(runs))
	for i, p := range runs {
		segs[i] = RunSegment{Path: p, Lo: 0, Hi: -1}
	}
	return segs
}

// cursor reads one segment front to back, a block of records at a time:
// the merge tree has one at each leaf, one per open run.
type cursor[T any] struct {
	f    *os.File
	cd   codec.Codec[T]
	blk  []T // the block read last; blk[pos:] are yet to be returned
	pos  int
	wire []byte // the marshal path's read buffer; a zero-copy read ignores it
	left int64  // records of the segment not yet read from the file; -1 = until EOF
}

// newBlock carves bufBytes into a block of at least one record and its
// wire bytes: for a zero-copy codec one buffer, wire the block's View,
// otherwise a block and a wire buffer of as many records.
func newBlock[T any](cd codec.Codec[T], bufBytes int) (blk []T, wire []byte, zc bool) {
	if codec.IsZeroCopy(cd) {
		blk = make([]T, max(bufBytes/cd.Size(), 1))
		wire, _ = codec.View(cd, blk)
		return blk, wire, true
	}
	var z T
	n := max(bufBytes/(cd.Size()+int(unsafe.Sizeof(z))), 1)
	return make([]T, n), make([]byte, n*cd.Size()), false
}

// openSegment opens a cursor over seg whose block fills bufBytes.
func openSegment[T any](seg RunSegment, cd codec.Codec[T], bufBytes int) (*cursor[T], error) {
	f, err := os.Open(seg.Path)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run: %w", err)
	}
	if seg.Lo > 0 {
		if _, err := f.Seek(seg.Lo*int64(cd.Size()), io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("extsort: seek run: %w", err)
		}
	}
	left := int64(-1)
	if seg.Hi >= 0 {
		left = max(seg.Hi-seg.Lo, 0)
	}
	blk, wire, _ := newBlock(cd, bufBytes)
	return &cursor[T]{f: f, cd: cd, blk: blk[:0], wire: wire, left: left}, nil
}

// fill reads the segment's next block. A file that ends before the
// segment does — or mid-record — is an error, not an end.
func (c *cursor[T]) fill() error {
	if c.left == 0 {
		return io.EOF
	}
	want := cap(c.blk)
	if c.left > 0 {
		want = int(min(int64(want), c.left))
	}
	n, err := recordio.ReadBlock(c.f, c.cd, c.blk[:want], c.wire)
	if err == io.EOF && c.left > 0 {
		return fmt.Errorf("segment ends %d records early", c.left-int64(n))
	}
	if n == 0 || err != nil && err != io.EOF {
		return err
	}
	c.blk, c.pos = c.blk[:n], 0
	if c.left > 0 {
		c.left -= int64(n)
	}
	return nil
}

// Close releases the cursor's file. Safe to call more than once.
func (c *cursor[T]) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// next makes the cursor a leaf of a merge tree (see source); at the
// segment's end it closes the file at once.
func (c *cursor[T]) next(taken int) ([]T, error) {
	c.pos += taken
	if c.pos == len(c.blk) {
		switch err := c.fill(); err {
		case nil:
		case io.EOF:
			c.left = 0 // fill answers io.EOF from now on, without the file
			c.Close()
		default:
			return nil, fmt.Errorf("extsort: run %s: %w", c.f.Name(), err)
		}
	}
	return c.blk[c.pos:], nil
}

// A source is a node of a merge tree: a run's cursor at a leaf, a
// merge2 above. next consumes the first taken records of the block it
// returned last and returns those it has ready now, in order, refilling
// once they are spent; the block is empty only once the source is.
type source[T any] interface {
	next(taken int) ([]T, error)
}

// merge2 is an inner node of the merge tree: the stable two-way merge
// of its children, l holding the lower-indexed runs. Below the root it
// merges into its own buffer out, of which out[:pos] is taken.
type merge2[T any] struct {
	l, r source[T]
	cmp  func(a, b T) int
	out  []T
	pos  int
}

func (m *merge2[T]) next(taken int) ([]T, error) {
	m.pos += taken
	if m.pos == len(m.out) {
		n, err := m.merge(m.out[:cap(m.out)])
		m.out, m.pos = m.out[:n], 0
		if err != nil {
			return nil, err
		}
	}
	return m.out[m.pos:], nil
}

// merge fills dst with the children's next records, as Fill does.
// MergeSome stops whenever one side's ready block is spent, so that side
// refills before a record of the other passes it.
func (m *merge2[T]) merge(dst []T) (k int, err error) {
	var a, b []T
	for i, j := 0, 0; ; k += i + j {
		if a, err = m.l.next(i); err == nil {
			b, err = m.r.next(j)
		}
		if err != nil || k == len(dst) || len(a)+len(b) == 0 {
			return k, err
		}
		i, j = psort.MergeSome(dst[k:], a, b, m.cmp)
		switch {
		case len(b) == 0:
			i = copy(dst[k:], a)
		case len(a) == 0:
			j = copy(dst[k:], b)
		}
	}
}

// MergeStream is a lazy cursor over the merged order of a set of
// sorted run files: a balanced tree of two-way merges over the runs'
// cursors, in run order. Nothing is held resident beyond one BufBytes
// share per run, reserved from MergeOptions.Mem for its lifetime.
type MergeStream[T any] struct {
	root     *merge2[T]
	runs     []*cursor[T]
	cd       codec.Codec[T]
	mem      *memlimit.Gauge
	reserved int64
}

// OpenMerge opens a merge stream over runs (paths of committed run
// files, in stability order). If there are more runs than MaxFanIn,
// whole batches are first pre-merged into intermediate runs — each
// pass consumes and deletes its input files — until one pass fits.
func OpenMerge[T any](runs []string, cd codec.Codec[T], cmp func(a, b T) int, opt MergeOptions) (*MergeStream[T], error) {
	return openMergeCapped(WholeRuns(runs), true, cd, cmp, opt)
}

// OpenMergeSegments is OpenMerge over run segments. Segments may alias
// the same file, so fan-in-capped pre-merges never delete their inputs
// here; intermediate runs land in MergeOptions.TempDir (default: the
// first segment's directory) and are left for the caller's directory
// cleanup.
func OpenMergeSegments[T any](segs []RunSegment, cd codec.Codec[T], cmp func(a, b T) int, opt MergeOptions) (*MergeStream[T], error) {
	return openMergeCapped(append([]RunSegment(nil), segs...), false, cd, cmp, opt)
}

func openMergeCapped[T any](segs []RunSegment, consume bool, cd codec.Codec[T], cmp func(a, b T) int, opt MergeOptions) (*MergeStream[T], error) {
	fan := opt.MaxFanIn
	if fan < 2 || opt.BufBytes < cd.Size() {
		return nil, fmt.Errorf("extsort: merge of fan-in %d through %d-byte buffers: want fan-in 2 and a %d-byte record at least", fan, opt.BufBytes, cd.Size())
	}
	seq := 0
	for len(segs) > fan {
		next := segs[:0:0]
		for i := 0; i < len(segs); i += fan {
			j := min(i+fan, len(segs))
			if j-i == 1 {
				next = append(next, segs[i])
				continue
			}
			dir := opt.TempDir
			if dir == "" {
				dir = filepath.Dir(segs[i].Path)
			}
			dst := filepath.Join(dir, fmt.Sprintf("premerge-%06d", seq))
			seq++
			if err := premerge(segs[i:j], dst, cd, cmp, opt); err != nil {
				return nil, err
			}
			if consume {
				for _, s := range segs[i:j] {
					os.Remove(s.Path)
				}
			}
			next = append(next, RunSegment{Path: dst, Lo: 0, Hi: -1})
		}
		segs = next
	}
	ms, err := openCursors(segs, cd, cmp, opt)
	if err != nil {
		return nil, err
	}
	if len(segs) > 1 {
		opt.Stats.AddMerge(len(segs))
	}
	return ms, nil
}

// openCursors opens one cursor per segment, drops the empty ones and
// builds the tree over the rest. Each run's BufBytes share holds its
// cursor's block (¾) and at most one inner node's buffer (¼): k leaves
// have k-1 inner nodes, and the root merges straight into Fill's dst.
func openCursors[T any](segs []RunSegment, cd codec.Codec[T], cmp func(a, b T) int, opt MergeOptions) (*MergeStream[T], error) {
	ms := &MergeStream[T]{cd: cd, mem: opt.Mem}
	buf := opt.BufBytes
	need := int64(len(segs)) * int64(buf)
	if err := opt.Mem.Reserve(need); err != nil {
		return nil, fmt.Errorf("extsort: merge buffers for %d runs: %w", len(segs), err)
	}
	ms.reserved = need
	var level []source[T]
	for _, seg := range segs {
		cur, err := openSegment(seg, cd, buf-buf/4)
		if err != nil {
			ms.Close()
			return nil, err
		}
		ms.runs = append(ms.runs, cur)
		if blk, err := cur.next(0); err != nil {
			ms.Close()
			return nil, err
		} else if len(blk) > 0 {
			level = append(level, cur)
		}
	}
	var z T
	nodeRecs := max(buf/4/int(unsafe.Sizeof(z)), 1)
	for len(level) > 2 {
		next := level[:0:0]
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, &merge2[T]{l: level[i], r: level[i+1], cmp: cmp, out: make([]T, 0, nodeRecs)})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1]) // the odd run out passes up unmerged
		}
		level = next
	}
	for len(level) < 2 {
		level = append(level, &cursor[T]{}) // a spent cursor: a missing child
	}
	ms.root = &merge2[T]{l: level[0], r: level[1], cmp: cmp}
	return ms, nil
}

// Fill copies the next records in merged order into dst, in place, and
// returns how many: len(dst) unless the merge ends (or fails) first.
// The root merges its two subtrees straight into dst.
func (ms *MergeStream[T]) Fill(dst []T) (int, error) {
	return ms.root.merge(dst)
}

// Stream writes every remaining record to w in wire format through one
// bufBytes block, which the caller reserves, and returns how many. A
// zero-copy codec's block is filled in place and written as its View;
// any other codec's is encoded into its wire half first.
func (ms *MergeStream[T]) Stream(w io.Writer, bufBytes int) (total int64, err error) {
	blk, wire, zc := newBlock(ms.cd, bufBytes)
	for {
		n, err := ms.Fill(blk)
		if err != nil || n == 0 {
			return total, err
		}
		out := wire[:n*ms.cd.Size()]
		if !zc {
			out = codec.EncodeSlice(ms.cd, wire[:0], blk[:n])
		}
		if _, err := w.Write(out); err != nil {
			return total, err
		}
		total += int64(n)
	}
}

// Close releases the remaining cursors and the buffer reservation.
// Safe to call more than once.
func (ms *MergeStream[T]) Close() error {
	for _, cur := range ms.runs {
		cur.Close()
	}
	ms.runs = nil
	ms.mem.Release(ms.reserved)
	ms.reserved = 0
	return nil
}

// premerge streams one batch of run segments into a single committed
// intermediate run at dst.
func premerge[T any](batch []RunSegment, dst string, cd codec.Codec[T], cmp func(a, b T) int, opt MergeOptions) error {
	ms, err := openCursors(batch, cd, cmp, opt)
	if err != nil {
		return err
	}
	defer ms.Close()
	if err := opt.Mem.Reserve(int64(opt.BufBytes)); err != nil {
		return fmt.Errorf("extsort: pre-merge writer buffer: %w", err)
	}
	defer opt.Mem.Release(int64(opt.BufBytes))
	fw, err := CreateFile(dst, 0) // the merge's output block is the buffer
	if err != nil {
		return err
	}
	defer fw.Abort()
	n, err := ms.Stream(fw, opt.BufBytes)
	if err != nil {
		return fmt.Errorf("extsort: pre-merge %s: %w", dst, err)
	}
	if err := fw.Commit(); err != nil {
		return err
	}
	opt.Stats.AddRun(n * int64(cd.Size()))
	opt.Stats.AddMerge(len(batch))
	return nil
}
