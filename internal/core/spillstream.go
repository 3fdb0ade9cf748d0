package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/extsort"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
	"sdssort/internal/recordio"
)

// Spilled is the result of a spilled sort: this rank's block of the
// globally sorted output, as sorted run files merged lazily on read.
// Concatenating ranks' streams in rank order yields the sorted
// dataset. The handle owns a private directory; Remove deletes it.
type Spilled[T any] struct {
	dir     string
	runs    []string
	records int64
	cd      codec.Codec[T]
	cmp     func(a, b T) int
	merge   extsort.MergeOptions
}

// Records returns the number of records in this block.
func (s *Spilled[T]) Records() int64 { return s.records }

// open starts a lazy merge over the runs without consuming them, so the
// handle stays readable after a merge pass even when a fan-in cap forces
// pre-merges (intermediates land in the handle's directory and die with
// it).
func (s *Spilled[T]) open() (*extsort.MergeStream[T], error) {
	return extsort.OpenMergeSegments(extsort.WholeRuns(s.runs), s.cd, s.cmp, s.merge)
}

// Stream writes the block to w in recordio wire format through a lazy
// merge that fills one output block of BufBytes at a time; the cursor
// blocks and the output block are reserved from the merge's gauge.
func (s *Spilled[T]) Stream(w io.Writer) error {
	ms, err := s.open()
	if err != nil {
		return err
	}
	defer ms.Close()
	if err := s.merge.Mem.Reserve(int64(s.merge.BufBytes)); err != nil {
		return fmt.Errorf("core: spilled output buffer: %w", err)
	}
	defer s.merge.Mem.Release(int64(s.merge.BufBytes))
	_, err = ms.Stream(w, s.merge.BufBytes)
	return err
}

// Remove deletes the spill directory and every run in it.
func (s *Spilled[T]) Remove() error { return os.RemoveAll(s.dir) }

// SortFileShard is the fully out-of-core sort of shard rank-of-p of the
// record file at path (recordio.ShardRange's layout): every rank of c
// calls it with the same path and receives its Spilled block. On a
// one-rank world this is the external sort of a file. Options.Spill is
// required. The shard streams in a chunk at a time, sorted local runs
// spill to disk, the exchange moves per-destination merges of run
// segments and lands per-source run files, and the result is merged
// lazily on read. At no point is the shard resident: peak memory is the
// chunk buffer during the run phase, then the staging window plus merge
// cursor buffers — all reserved against Options.Mem — so a rank with a
// fixed budget sorts arbitrarily large inputs.
//
// Differences from the resident driver, by construction of the regime:
// node-level merging (τm) and overlap (τo) do not apply (the exchange
// is always the staged synchronous collective), and pivots come from
// per-run samples rather than the fully sorted local data. The split is
// the resident one, each local run a stripe of it. Stability holds end
// to end: runs are cut in input order, the stable rule deals a
// replicated value's duplicates out in (rank, run, position) order, and
// every merge tiebreaks by run index, which is source rank on receipt.
func SortFileShard[T any](c *comm.Comm, path string, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (*Spilled[T], error) {
	total, err := recordio.Count[T](path, cd)
	if err != nil {
		return nil, err
	}
	lo, hi := recordio.ShardRange(total, c.Rank(), c.Size())
	return sortSegment(c, path, lo, hi, cd, cmp, opt)
}

// sortSegment is SortFileShard over records [lo, hi) of the file at
// path: the resident sort's phase list with both sides of every phase
// on disk.
func sortSegment[T any](c *comm.Comm, path string, lo, hi int64, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (*Spilled[T], error) {
	sp := opt.Spill
	if sp == nil {
		return nil, fmt.Errorf("core: SortFileShard needs Options.Spill")
	}
	// The shard read buffer: the marshal path's wire buffer, reserved
	// whether or not the codec needs one.
	bufBytes := int64(sp.bufBytes())
	if err := opt.Mem.Reserve(bufBytes); err != nil {
		return nil, fmt.Errorf("core: shard read buffer: %w", err)
	}
	defer opt.Mem.Release(bufBytes)
	var wire []byte
	if !codec.IsZeroCopy(cd) {
		wire = make([]byte, bufBytes)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in := io.NewSectionReader(f, lo*int64(cd.Size()), (hi-lo)*int64(cd.Size()))
	r, err := newRun(c, cd, cmp, opt)
	if err != nil {
		return nil, err
	}
	defer r.close()
	p, recSize := c.Size(), r.recSize
	r.start(map[string]any{"stable": opt.Stable, "p": p, "stream": true})
	sp.Stats.AddSpilledSort()
	dir, err := os.MkdirTemp(sp.Dir, "spill-*")
	if err != nil {
		return nil, fmt.Errorf("core: spill dir: %w", err)
	}
	keep := false
	defer func() {
		if !keep {
			os.RemoveAll(dir)
		}
	}()

	var (
		local   []string  // the sorted local run files
		counts  []int64   // records per local run
		samples []T       // p-1 regular samples of every run, unsorted across runs
		bounds  [][]int64 // per local run, its per-destination record bounds
		scounts = make([]int, p)
		runs    []string // the block: the local runs on one rank, else what the exchange received
		records int64
	)
	phases := []phase{
		// Cut the input into sorted local runs, sampling each chunk for
		// pivot selection.
		{name: "localsort", clock: metrics.PhaseLocalSort, body: func() (map[string]any, error) {
			detail := map[string]any{}
			if local, counts, samples, err = cutRuns(r, in, wire, dir, detail); err != nil {
				return nil, err
			}
			runs, records = local, sum(counts)
			if records != hi-lo {
				return nil, fmt.Errorf("core: %s ends %d records into a %d-record shard", path, records, hi-lo)
			}
			if p == 1 {
				r.exit = "single"
			}
			detail["runs"], detail["records"] = len(runs), records
			return detail, nil
		}},
		// Global pivots from a regular sample of the pooled chunk samples.
		{name: "pivots", clock: metrics.PhasePivotSelection, body: func() (map[string]any, error) {
			psort.ParallelSort(samples, opt.cores(), opt.Stable, cmp)
			lp := pivots.RegularSample(samples, p)
			samples = nil
			return r.selectPivots(lp)
		}},
		// Partition by the skew-aware split rule, each local run one
		// stripe with its pivot bounds found by seek search; the send
		// counts are the runs' shares summed.
		{name: "partition", clock: metrics.PhasePivotSelection, body: func() (map[string]any, error) {
			lbs, ubs := make([][]int64, len(local)), make([][]int64, len(local))
			for i, path := range local {
				if lbs[i], ubs[i], err = runBounds(path, cd, counts[i], r.pg, cmp); err != nil {
					return nil, fmt.Errorf("core: partition run %s: %w", path, err)
				}
			}
			if bounds, err = split(r, lbs, ubs, counts); err != nil {
				return nil, err
			}
			for _, b := range bounds {
				for dst, n := range partition.Counts(b) {
					scounts[dst] += int(n)
				}
			}
			return map[string]any{"dests": p}, nil
		}},
		// The staged exchange with both sides on disk — runSource feeds
		// it, per-source run files receive it. The schedule visits one
		// destination and one source per round, so one fill merge and one
		// spool writer are live at a time.
		{clock: metrics.PhaseExchange, body: func() (map[string]any, error) {
			pl, err := r.plan(scounts)
			if err != nil {
				return nil, err
			}
			records = sum(pl.recv) / recSize
			src, closeSrc := runSource(local, bounds, cd, cmp, recSize, sp.mergeOptions(dir, opt.Mem))
			defer closeSrc()
			if runs, err = r.spillReceive(dir, pl, src); err != nil {
				return nil, err
			}
			// The local runs have been fully shipped; only the received
			// runs constitute the block.
			for _, path := range local {
				os.Remove(path)
			}
			r.exit = "spilled"
			return nil, nil
		}},
	}
	if err := r.runPhases(phases); err != nil {
		return nil, err
	}
	keep = true
	r.done(records)
	return &Spilled[T]{
		dir: dir, runs: runs, records: records,
		cd: cd, cmp: cmp, merge: sp.mergeOptions(dir, opt.Mem),
	}, nil
}

// cutRuns reads the input a chunk at a time, each chunk filled in place
// and sorted into a run file under dir, and returns the runs' paths,
// their record counts, and p regular samples of each; detail learns the
// last chunk's sort kernel. Peak: the chunk plus the sort's scratch —
// one slab, kept across the chunks: a chunk, or the radix kernel's
// chunk and bucket spare for a keyed codec — plus the run writer's
// buffer, reserved for the length of the phase.
func cutRuns[T any](r *run[T], in io.Reader, wire []byte, dir string, detail map[string]any) (paths []string, counts []int64, samples []T, err error) {
	sp, p := r.opt.Spill, r.c.Size()
	chunkN := sp.chunkRecords(r.recSize, r.opt.Mem.Budget())
	scratchN := chunkN
	if _, keyed := codec.Uint64KeyOf(r.cd); keyed {
		scratchN = radix.ScratchCap[T](chunkN)
	}
	chunkNeed := int64(chunkN+scratchN)*r.recSize + int64(sp.bufBytes())
	if err := r.acct.reserve(chunkNeed); err != nil {
		return nil, nil, nil, fmt.Errorf("core: spill chunk of %d records: %w", chunkN, err)
	}
	defer func() { r.scratch = nil; r.acct.release(chunkNeed) }()
	chunk := make([]T, chunkN)
	flush := func(chunk []T) error {
		block, err := r.order(chunk, r.opt.RunThreshold, detail)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("local-%06d", len(paths)))
		fw, err := extsort.CreateFile(path, sp.bufBytes())
		if err != nil {
			return err
		}
		defer fw.Abort()
		if err := extsort.Records(fw, r.cd).Write(block...); err != nil {
			return fmt.Errorf("core: spill run %s: %w", path, err)
		}
		if err := fw.Commit(); err != nil {
			return err
		}
		sp.Stats.AddRun(int64(len(chunk)) * r.recSize)
		paths = append(paths, path)
		counts = append(counts, int64(len(chunk)))
		samples = append(samples, pivots.RegularSample(block, p)...)
		if &block[0] != &chunk[0] {
			r.scratch = block // the block took the scratch: chunk stays the one read into
		}
		return nil
	}
	for {
		n, err := recordio.ReadBlock(in, r.cd, chunk, wire)
		if err != nil && err != io.EOF {
			return nil, nil, nil, fmt.Errorf("core: read input: %w", err)
		}
		if n > 0 {
			if ferr := flush(chunk[:n]); ferr != nil {
				return nil, nil, nil, ferr
			}
		}
		if err == io.EOF {
			return paths, counts, samples, nil
		}
	}
}

// runSource is the spilled sort's send side: each destination's payload is a
// lazy merge of that destination's segments of the local runs (ubs[r]
// are run r's per-destination record bounds), filled chunk by chunk into
// pooled buffers — in place, viewed as records, for zero-copy codecs,
// through a small block of records encoded into the chunk otherwise.
// Destinations are visited one per round, each payload fully streamed,
// so one merge is open at a time; the returned func closes whichever is.
func runSource[T any](runs []string, ubs [][]int64, cd codec.Codec[T], cmp func(a, b T) int, recSize int64, mo extsort.MergeOptions) (chunkSource, func()) {
	var cur *extsort.MergeStream[T]
	curDst := -1
	closeCur := func() {
		if cur != nil {
			cur.Close()
			cur = nil
		}
	}
	pool := &codec.BufferPool{}
	var blk [64]T // a codec without zero copy fills this and encodes it
	return chunkSource{pool: pool, fill: func(dst int, off, n int64) ([]byte, error) {
		if dst != curDst {
			closeCur() // the previous destination's merge is exhausted
			var segs []extsort.RunSegment
			for r, path := range runs {
				if ubs[r][dst+1] > ubs[r][dst] {
					segs = append(segs, extsort.RunSegment{Path: path, Lo: ubs[r][dst], Hi: ubs[r][dst+1]})
				}
			}
			ms, err := extsort.OpenMergeSegments(segs, cd, cmp, mo)
			if err != nil {
				return nil, err
			}
			cur, curDst = ms, dst
		}
		buf := pool.Get(int(n))[:n]
		recs, zc := codec.Records(cd, buf)
		for b := int64(0); b < n; {
			out := blk[:min(int64(len(blk)), (n-b)/recSize)]
			if zc {
				out = recs[b/recSize:] // a zero-copy chunk is filled in place
			}
			k, err := cur.Fill(out)
			if err == nil && k == 0 {
				err = io.EOF
			}
			if err != nil {
				return nil, fmt.Errorf("core: fill for rank %d at %d: %w", dst, off+b+int64(k)*recSize, err)
			}
			if !zc {
				codec.EncodeSlice(cd, buf[b:b], blk[:k])
			}
			b += int64(k) * recSize
		}
		return buf, nil
	}}, closeCur
}

// runBounds is partition.Search over one sorted run file of n records
// by seek-based binary search: O(log n) single-record reads per
// distinct pivot value, twice that for a replicated one, and no
// residency.
func runBounds[T any](path string, cd codec.Codec[T], n int64, pg []T, cmp func(a, b T) int) (lb, ub []int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	recSize := int64(cd.Size())
	buf := make([]byte, recSize)
	var lo int64 // values ascend, so each search starts at the last bound
	lb, ub = partition.Search(pg, cmp, func(v T, upper bool) int64 {
		for hi := n; lo < hi && err == nil; {
			mid := (lo + hi) / 2
			if _, err = f.ReadAt(buf, mid*recSize); err != nil {
				err = fmt.Errorf("read record %d: %w", mid, err)
			} else if c := cmp(cd.Unmarshal(buf), v); c < 0 || upper && c == 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	})
	return lb, ub, err
}
