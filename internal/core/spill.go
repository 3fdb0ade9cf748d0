package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"sdssort/internal/comm"
	"sdssort/internal/extsort"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
)

// The out-of-core spill tier. When the receive side of the exchange
// does not fit the memlimit budget (or spilling is forced), each
// source's incoming payload — already sorted, being a contiguous slice
// of that source's sorted partition — streams to a per-source run file
// in raw wire format, with no decode and no re-sort, through the same
// atomic temp-and-rename commit the checkpoint writer uses. The output
// is then a lazy k-way merge over the run files with the source rank
// as tiebreaker, which is exactly the stable rank-ordered merge of the
// in-memory path — so every driver path (stable, chunked or not,
// zero-copy, marshal) spills with identical output bytes.
//
// SortFileShard (spillstream.go) extends the same machinery to the input
// side, so a rank never needs its full shard resident at once.

// SpillOptions configures the spill tier; Options.Spill nil disables
// it entirely. Like the rest of Options it must agree across ranks:
// the spill decision is collective (if any rank must spill, all do),
// so a job where only some ranks configure spilling deadlocks.
type SpillOptions struct {
	// Dir is the directory that holds spill files. Every sort creates
	// (and removes) a private subdirectory under it, so a crashed
	// attempt can never leak stale temp runs into a retry. Empty means
	// the OS temp dir.
	Dir string
	// Force spills the exchange's receive side unconditionally, even
	// when it would fit the budget — the ablation/test knob behind the
	// spilled-vs-resident equivalence property.
	Force bool
	// ChunkRecords is the streaming driver's in-memory run size in
	// records; SortFileShard's peak chunk footprint is ChunkRecords ×
	// record size × 2, and up to × 3 for a keyed codec, whose radix
	// scratch holds a bucket spare. Zero derives it from the gauge
	// budget (a quarter of the budget, in records), or 1<<20 with no
	// budget.
	ChunkRecords int
	// MaxFanIn caps the width of one merge pass over run files; more
	// runs are pre-merged in batches first. Default 64; at least 2, as a
	// one-way "merge" could never reduce the run count.
	MaxFanIn int
	// BufBytes sizes each run-file buffer, every one reserved from the
	// gauge: a merge reserves one per cursor, holding its run's current
	// block of records; a pre-merge pass or Spilled.Stream one more, the
	// block the merge fills for output; a run writer or the receive
	// spool one write buffer. Default 256 KiB.
	BufBytes int
	// Stats accrues spill counters (runs, bytes, merge passes). May be
	// shared across ranks.
	Stats *metrics.SpillStats
}

// FitBudget sizes the tier's unset knobs to a per-rank memory budget.
// Run/merge buffers get budget/32 (floored at 4 KiB, capped at the
// 256 KiB default) and the merge fan-in is whatever a quarter of the
// budget holds in cursor buffers (floored at 4, capped at the 64
// default). Explicitly-set fields are left alone; a zero budget is a
// no-op. The cap on fan-in is what makes the tier safe at any input
// size: run counts grow with the data, but a capped merge pre-merges
// in bounded passes, so the worst concurrent reservation — staging
// window, fill-merge cursors, spool and read buffers — stays under the
// budget regardless of how many runs spilled.
func (sp *SpillOptions) FitBudget(budget int64) {
	if budget <= 0 {
		return
	}
	if sp.BufBytes == 0 {
		sp.BufBytes = int(min(max(budget/32, 4<<10), 256<<10))
	}
	if sp.MaxFanIn == 0 {
		sp.MaxFanIn = int(min(max(budget/4/int64(sp.bufBytes()), 4), 64))
	}
}

func (sp *SpillOptions) bufBytes() int {
	if sp.BufBytes > 0 {
		return sp.BufBytes
	}
	return 256 << 10
}

// stageBytes is the chunk bound of a spilled exchange: the configured
// StageBytes, or 4 × BufBytes without one — one unbounded chunk per
// peer would defeat the bounded window the tier exists for.
func (sp *SpillOptions) stageBytes(configured int64) int64 {
	if configured > 0 {
		return configured
	}
	return 4 * int64(sp.bufBytes())
}

func (sp *SpillOptions) maxFanIn() int {
	if sp.MaxFanIn > 0 {
		return max(sp.MaxFanIn, 2)
	}
	return 64
}

func (sp *SpillOptions) chunkRecords(recSize, budget int64) int {
	if sp.ChunkRecords > 0 {
		return sp.ChunkRecords
	}
	if budget > 0 {
		n := budget / (4 * recSize)
		if n < 1 {
			n = 1
		}
		if n > 1<<20 {
			n = 1 << 20
		}
		return int(n)
	}
	return 1 << 20
}

// mergeOptions builds the extsort merge configuration for this spill.
func (sp *SpillOptions) mergeOptions(tempDir string, g *memlimit.Gauge) extsort.MergeOptions {
	return extsort.MergeOptions{
		MaxFanIn: sp.maxFanIn(),
		BufBytes: sp.bufBytes(),
		Mem:      g,
		TempDir:  tempDir,
		Stats:    sp.Stats,
	}
}

// agreeSpill makes the spill decision collective: each rank reports
// whether its receive buffer fits the budget, and the exchange spills
// everywhere if it fails to fit anywhere — the exchange is one
// collective, so all ranks must walk the same path. localWant is
// Force, or a failed receive reservation.
func agreeSpill(wc *comm.Comm, localWant bool) (bool, error) {
	var vote int64
	if localWant {
		vote = 1
	}
	spill, err := wc.AllreduceInt64(vote, func(a, b int64) int64 { return max(a, b) })
	if err != nil {
		return false, fmt.Errorf("core: spill agreement: %w", err)
	}
	return spill == 1, nil
}

// recvSpool is the on-disk sink: one run file per source rank, written
// in raw wire bytes as chunks arrive and committed the moment the
// source's advertised payload is complete. The staged schedule streams
// one source to completion per round, so at most one run writer is ever
// open — the spool's memory is a single write buffer.
type recvSpool struct {
	dir       string
	bufBytes  int
	recv      []int64 // advertised payload bytes by source rank
	stats     *metrics.SpillStats
	active    *extsort.File
	activeSrc int
	got       int64    // payload bytes of activeSrc written so far
	runs      []string // by source rank; "" = no data yet
}

// drain is the chunkSink.
func (s *recvSpool) drain(src int, _ int64, chunk []byte) error {
	if s.active == nil {
		if s.runs[src] != "" {
			// The schedule visits each (src, dst) pair exactly once; a
			// revisit would corrupt the per-source run.
			return fmt.Errorf("core: spill receive from rank %d resumed after commit", src)
		}
		path := filepath.Join(s.dir, fmt.Sprintf("recv-%06d", src))
		w, err := extsort.CreateFile(path, s.bufBytes)
		if err != nil {
			return err
		}
		s.active, s.activeSrc, s.got, s.runs[src] = w, src, 0, path
	} else if src != s.activeSrc {
		return fmt.Errorf("core: spill receive from rank %d interleaved with rank %d's", src, s.activeSrc)
	}
	if _, err := s.active.Write(chunk); err != nil {
		return err
	}
	if s.got += int64(len(chunk)); s.got < s.recv[src] {
		return nil
	}
	w := s.active
	s.active = nil
	if err := w.Commit(); err != nil {
		return err
	}
	s.stats.AddRun(s.recv[src])
	return nil
}

// spillReceive runs the staged exchange with its receive side landing
// in run files under dir and returns them in source-rank order — the
// stability order of the merge that reads them back.
func (r *run[T]) spillReceive(dir string, pl exchangePlan, src chunkSource) ([]string, error) {
	sp := r.opt.Spill
	spool := &recvSpool{
		dir: dir, bufBytes: sp.bufBytes(), recv: pl.recv, stats: sp.Stats,
		runs: make([]string, len(pl.recv)),
	}
	pl.span, pl.sinkBuf = "spill", int64(sp.bufBytes())
	pl.stage = effStage(sp.stageBytes(r.opt.StageBytes), r.recSize)
	if _, err := r.stagedExchange(pl, false, src, chunkSink{drain: spool.drain}); err != nil {
		if spool.active != nil {
			spool.active.Abort() // committed runs die with the spill directory
		}
		return nil, err
	}
	return slices.DeleteFunc(spool.runs, func(path string) bool { return path == "" }), nil
}

// spillExchange runs the all-to-all with its receive side on disk and
// returns the merged resident output. Peak memory is max(input +
// staging window + one write buffer, output + merge cursor buffers)
// instead of the in-memory path's input + output together: the input's
// reservation is released the moment the exchange completes, before
// the output buffer is reserved.
func (r *run[T]) spillExchange(pl exchangePlan) ([]T, error) {
	sp := r.opt.Spill
	sp.Stats.AddSpilledSort()
	dir, err := os.MkdirTemp(sp.Dir, "spill-*")
	if err != nil {
		return nil, fmt.Errorf("core: spill dir: %w", err)
	}
	defer os.RemoveAll(dir)
	runs, err := r.spillReceive(dir, pl, r.partitionSource())
	if err != nil {
		return nil, err
	}

	// The working set has been fully shipped (the self slice too — it
	// went through the spool like any other source): its claim on the
	// budget ends here, and only now is the output reserved. This
	// hand-off is the spill tier's point: input and output never
	// occupy the budget together.
	m := sum(pl.recv) / r.recSize
	r.acct.release(int64(len(r.work)) * r.recSize)
	if err := r.acct.reserve(m * r.recSize); err != nil {
		return nil, fmt.Errorf("core: spilled output of %d records: %w", m, err)
	}

	// Lazy merge back to a resident block: source-rank order with the
	// run index as tiebreaker reproduces the in-memory rank-ordered
	// stable merge exactly.
	r.tm.Start(metrics.PhaseLocalOrdering)
	osp := trace.StartSpan(r.tr, r.rank, r.opt.Span, "localorder", map[string]any{"merge": true, "runs": len(runs)})
	defer osp.End(spanFailed)
	ms, err := extsort.OpenMerge(runs, r.cd, r.cmp, sp.mergeOptions(dir, r.opt.Mem))
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	out := make([]T, m+1) // the spare slot shows a merge that yields more as m + 1 records
	k, err := ms.Fill(out)
	if err != nil {
		return nil, err
	}
	if int64(k) != m {
		return nil, fmt.Errorf("core: spilled merge yielded %d of %d records", k, m)
	}
	osp.End(map[string]any{"records": k, "kernel": "runs"})
	return out[:k], nil
}
