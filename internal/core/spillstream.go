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
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
	"sdssort/internal/recordio"
)

// SortStream is the fully out-of-core driver: the input streams in,
// sorted local runs spill to disk, the exchange moves per-destination
// merges of run segments and lands per-source run files, and the
// result is a Spilled handle merged lazily on read. At no point is the
// shard resident: peak memory is the chunk buffer during the run
// phase, then the staging window plus merge cursor buffers — all
// reserved against Options.Mem — so a rank with a fixed budget sorts
// arbitrarily large inputs.
//
// Differences from the resident driver, by construction of the regime:
// node-level merging (τm) and overlap (τo) do not apply (the exchange
// is always the staged synchronous collective), pivots come from
// per-run samples rather than the fully sorted local data, and the
// per-run partition is the classical upper bound — all duplicates of a
// pivot land on one destination, so extreme duplication skews load
// where the resident skew-aware partition would split it. Stability
// still holds end to end: runs are cut in input order, every merge
// tiebreaks by run index, and the upper-bound rule routes all equal
// records to the same destination.

// RecordSource yields records until io.EOF; *recordio.Reader[T]
// implements it.
type RecordSource[T any] interface {
	Read() (T, error)
}

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

// Runs returns the run file paths (source order).
func (s *Spilled[T]) Runs() []string { return append([]string(nil), s.runs...) }

// segments views the runs without consuming them, so the handle stays
// readable after a merge pass even when a fan-in cap forces pre-merges
// (intermediates land in the handle's directory and die with it).
func (s *Spilled[T]) segments() []extsort.RunSegment {
	segs := make([]extsort.RunSegment, len(s.runs))
	for i, p := range s.runs {
		segs[i] = extsort.RunSegment{Path: p, Lo: 0, Hi: -1}
	}
	return segs
}

// Stream writes the block to w in recordio wire format through a
// lazy merge; cursor buffers are reserved from the merge's gauge.
func (s *Spilled[T]) Stream(w io.Writer) error {
	ms, err := extsort.OpenMergeSegments(s.segments(), s.cd, s.cmp, s.merge)
	if err != nil {
		return err
	}
	defer ms.Close()
	if err := s.merge.Mem.Reserve(int64(s.merge.BufBytes)); err != nil {
		return fmt.Errorf("core: spilled output buffer: %w", err)
	}
	defer s.merge.Mem.Release(int64(s.merge.BufBytes))
	rw := recordio.NewWriterSize(w, s.cd, s.merge.BufBytes)
	for {
		rec, err := ms.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := rw.Write(rec); err != nil {
			return err
		}
	}
	return rw.Flush()
}

// ReadAll materialises the block — test and small-result convenience;
// the records are NOT reserved against any gauge.
func (s *Spilled[T]) ReadAll() ([]T, error) {
	ms, err := extsort.OpenMergeSegments(s.segments(), s.cd, s.cmp, s.merge)
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	out := make([]T, 0, s.records)
	for {
		rec, err := ms.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Remove deletes the spill directory and every run in it.
func (s *Spilled[T]) Remove() error { return os.RemoveAll(s.dir) }

// SortStream runs the spilled sort collectively over c; every rank
// calls it with its input stream and receives its Spilled block.
// Options.Spill is required.
func SortStream[T any](c *comm.Comm, in RecordSource[T], cd codec.Codec[T], cmp func(a, b T) int, opt Options) (*Spilled[T], error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	sp := opt.Spill
	if sp == nil {
		return nil, fmt.Errorf("core: SortStream needs Options.Spill")
	}
	tm := opt.timer()
	tm.Start(metrics.PhaseOther)
	defer tm.Stop()
	tr := opt.tracer()
	rank, p := c.Rank(), c.Size()
	recSize := int64(cd.Size())
	acct := &memAcct{g: opt.Mem}
	defer acct.releaseAll()
	sp.Stats.AddSpilledSort()

	dir, err := os.MkdirTemp(spillRoot(sp), "spill-*")
	if err != nil {
		return nil, fmt.Errorf("core: spill dir: %w", err)
	}
	keep := false
	defer func() {
		if !keep {
			os.RemoveAll(dir)
		}
	}()
	tr.Emit(rank, "sort.start", map[string]any{
		"stable": opt.Stable, "p": p, "stream": true,
	})

	// Phase 1: cut the input into sorted local runs, sampling each
	// chunk for pivot selection. Peak: the chunk plus the sort's
	// scratch plus the run writer's buffer.
	tm.Start(metrics.PhaseLocalSort)
	chunkN := sp.chunkRecords(recSize, opt.Mem.Budget())
	chunkNeed := int64(chunkN)*recSize*2 + int64(sp.bufBytes())
	if err := acct.reserve(chunkNeed); err != nil {
		return nil, fmt.Errorf("core: spill chunk of %d records: %w", chunkN, err)
	}
	var (
		localRuns   []string
		localCounts []int64
		samples     []T
		total       int64
	)
	chunk := make([]T, 0, chunkN)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if !localSortFast(chunk, cd, cmp, opt) {
			psort.AdaptiveSort(chunk, opt.cores(), opt.Stable, opt.RunThreshold, cmp)
		}
		path := filepath.Join(dir, fmt.Sprintf("local-%06d", len(localRuns)))
		rw, err := extsort.CreateRun(path, cd, sp.bufBytes())
		if err != nil {
			return err
		}
		if err := rw.Write(chunk...); err != nil {
			rw.Abort()
			return fmt.Errorf("core: spill run %s: %w", path, err)
		}
		if err := rw.Commit(); err != nil {
			return err
		}
		sp.Stats.AddRun(int64(len(chunk)) * recSize)
		localRuns = append(localRuns, path)
		localCounts = append(localCounts, int64(len(chunk)))
		samples = append(samples, pivots.RegularSample(chunk, p)...)
		total += int64(len(chunk))
		chunk = chunk[:0]
		return nil
	}
	for {
		rec, err := in.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: read input: %w", err)
		}
		chunk = append(chunk, rec)
		if len(chunk) >= chunkN {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	chunk = nil
	acct.release(chunkNeed)
	tr.Emit(rank, "spill.localruns", map[string]any{
		"runs": len(localRuns), "records": total,
	})

	done := func(runs []string, records int64, reason string) (*Spilled[T], error) {
		keep = true
		tr.Emit(rank, "sort.done", map[string]any{"records": records, "reason": reason})
		return &Spilled[T]{
			dir: dir, runs: runs, records: records,
			cd: cd, cmp: cmp, merge: sp.mergeOptions(dir, opt.Mem),
		}, nil
	}
	if p == 1 {
		return done(localRuns, total, "single")
	}

	// Phase 2: global pivots from the per-chunk regular samples.
	tm.Start(metrics.PhasePivotSelection)
	psort.ParallelSort(samples, opt.cores(), opt.Stable, cmp)
	pl := pivots.RegularSample(samples, p)
	pg, err := pivots.SelectGlobal(c, pl, cd, cmp)
	if err != nil {
		return nil, fmt.Errorf("core: pivot selection: %w", err)
	}
	samples = nil
	if len(pg) == 0 {
		// The whole dataset is empty — globally agreed, since every
		// rank sees the same SelectGlobal result.
		return done(nil, 0, "empty")
	}
	if len(pg) != p-1 {
		return nil, fmt.Errorf("core: selected %d global pivots for %d processes", len(pg), p)
	}

	// Phase 3: partition each run by seek-based binary search — the
	// classical upper bound per run, summed into send counts.
	ubs := make([][]int64, len(localRuns))
	scounts := make([]int, p)
	for r, path := range localRuns {
		ub, err := runBounds(path, cd, localCounts[r], pg, cmp)
		if err != nil {
			return nil, fmt.Errorf("core: partition run %s: %w", path, err)
		}
		ubs[r] = ub
		for dst := 0; dst < p; dst++ {
			scounts[dst] += int(ub[dst+1] - ub[dst])
		}
	}

	tm.Start(metrics.PhaseExchange)
	rcounts, err := exchangeCounts(c, scounts)
	if err != nil {
		return nil, fmt.Errorf("core: count exchange: %w", err)
	}
	m := sum(rcounts)

	// Phase 4: the staged exchange with both sides on disk — runSource
	// feeds it, per-source run files receive it. The schedule visits
	// one destination and one source per round, so one fill merge and
	// one spool writer are live at a time.
	plan := exchangePlan{
		rank: rank, recSize: recSize,
		send: scale(scounts, recSize), recv: scale(rcounts, recSize),
	}
	tr.Emit(rank, "exchange.plan", map[string]any{
		"send_records": total, "recv_records": m, "staged": true, "spilled": true,
	})
	src, closeSrc := runSource(localRuns, ubs, cd, cmp, recSize, sp.mergeOptions(dir, opt.Mem))
	defer closeSrc()
	runs, err := spillReceive(c, dir, plan, src, opt, acct)
	if err != nil {
		return nil, err
	}

	// The local runs have been fully shipped; only the received runs
	// constitute the block.
	for _, p := range localRuns {
		os.Remove(p)
	}
	return done(runs, m, "spilled")
}

// runSource is SortStream's send side: each destination's payload is a
// lazy merge of that destination's segments of the local runs (ubs[r]
// are run r's per-destination record bounds), marshalled chunk by chunk
// into pooled buffers. Destinations are visited one per round, each
// payload fully streamed, so one merge is open at a time; the returned
// func closes whichever is.
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
		for b := int64(0); b < n; b += recSize {
			rec, err := cur.Next()
			if err != nil {
				return nil, fmt.Errorf("core: fill for rank %d at %d: %w", dst, off+b, err)
			}
			cd.Marshal(buf[b:b+recSize], rec)
		}
		return buf, nil
	}}, closeCur
}

// SortFileShard runs SortStream over shard rank-of-p of the record
// file at path (recordio.ReadShard's shard layout, without ever
// loading the shard): every rank of c calls it with the same path.
func SortFileShard[T any](c *comm.Comm, path string, cd codec.Codec[T], cmp func(a, b T) int, opt Options) (*Spilled[T], error) {
	if opt.Spill == nil {
		return nil, fmt.Errorf("core: SortFileShard needs Options.Spill")
	}
	total, err := recordio.Count[T](path, cd)
	if err != nil {
		return nil, err
	}
	rank, p := c.Rank(), c.Size()
	per := total / int64(p)
	lo := int64(rank) * per
	hi := lo + per
	if rank == p-1 {
		hi = total
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(lo*int64(cd.Size()), io.SeekStart); err != nil {
		return nil, fmt.Errorf("core: seek shard: %w", err)
	}
	bufBytes := opt.Spill.bufBytes()
	if err := opt.Mem.Reserve(int64(bufBytes)); err != nil {
		return nil, fmt.Errorf("core: shard read buffer: %w", err)
	}
	defer opt.Mem.Release(int64(bufBytes))
	src := &limitedSource[T]{r: recordio.NewReaderSize(f, cd, bufBytes), left: hi - lo}
	return SortStream(c, src, cd, cmp, opt)
}

// limitedSource yields the next n records of a reader, then io.EOF.
type limitedSource[T any] struct {
	r    *recordio.Reader[T]
	left int64
}

func (ls *limitedSource[T]) Read() (T, error) {
	if ls.left <= 0 {
		var zero T
		return zero, io.EOF
	}
	rec, err := ls.r.Read()
	if err == nil {
		ls.left--
	}
	return rec, err
}

// runBounds computes the classical upper-bound partition of one sorted
// run file by seek-based binary search: ub[j+1] is the first record
// index greater than pivot j. O(p log n) single-record reads, no
// residency.
func runBounds[T any](path string, cd codec.Codec[T], n int64, pg []T, cmp func(a, b T) int) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recSize := int64(cd.Size())
	buf := make([]byte, recSize)
	readAt := func(i int64) (T, error) {
		if _, err := f.ReadAt(buf, i*recSize); err != nil {
			var zero T
			return zero, fmt.Errorf("read record %d: %w", i, err)
		}
		return cd.Unmarshal(buf), nil
	}
	p := len(pg) + 1
	ub := make([]int64, p+1)
	ub[p] = n
	for j, piv := range pg {
		lo, hi := ub[j], n // pivots ascend, so each bound starts at the last
		for lo < hi {
			mid := (lo + hi) / 2
			rec, err := readAt(mid)
			if err != nil {
				return nil, err
			}
			if cmp(rec, piv) <= 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ub[j+1] = lo
	}
	for j := 1; j <= p; j++ {
		if ub[j] < ub[j-1] {
			ub[j] = ub[j-1]
		}
	}
	return ub, nil
}
