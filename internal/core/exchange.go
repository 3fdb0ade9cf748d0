package core

import (
	"fmt"
	"slices"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/psort"
	"sdssort/internal/trace"
)

// The data exchange. Fig. 1 has two flavours — the synchronous
// all-to-all followed by merge-or-resort (lines 16-21) and the
// asynchronous one that merges each arrival (lines 23-27) — and both
// are one call, stagedExchange, over comm.StagedAlltoallv: they differ
// only in whether this rank's sends wait on its receives. Everything
// else is a *source* that produces a destination's outgoing chunks
// (partitionSource here, runSource in spillstream.go) or a *sink* that
// consumes a source rank's arriving chunks (recvSlab and mergeSink
// here, recvSpool in spill.go).

// effStage rounds the configured stage size down to a whole number of
// records (chunks must never split a record), with a floor of one
// record. Zero means no chunk bound: each peer's whole payload moves as
// one chunk.
func effStage(stageBytes, recSize int64) int64 {
	if stageBytes <= 0 {
		return 0
	}
	return max(stageBytes-stageBytes%recSize, recSize)
}

// scale converts per-peer record counts into payload bytes.
func scale[N int | int64](counts []N, recSize int64) []int64 {
	out := make([]int64, len(counts))
	for i, c := range counts {
		out[i] = int64(c) * recSize
	}
	return out
}

func sum(xs []int64) (total int64) {
	for _, x := range xs {
		total += x
	}
	return total
}

// exchangePlan is what the count exchange fixes about one data exchange
// before the first payload byte moves.
type exchangePlan struct {
	span    string  // "exchange", or "spill" when the receive side lands on disk
	send    []int64 // payload bytes to each destination
	recv    []int64 // payload bytes from each source
	stage   int64   // chunk bound, a whole number of records; 0 = one chunk per peer
	sinkBuf int64   // write buffer the sink holds for the length of the exchange
}

// spanFailed closes a span on an error exit.
var spanFailed = map[string]any{"reason": "error"}

// chunkSource produces the outgoing side of an exchange: fill returns
// the n bytes at payload offset off of dst's partition. Offsets and
// lengths are whole records because effStage is. pool is non-nil when
// fill encodes into pooled buffers, nil when it returns views aliasing
// the caller's record slab.
type chunkSource struct {
	fill func(dst int, off, n int64) ([]byte, error)
	pool *codec.BufferPool
}

// recycle returns a sent chunk's buffer to the pool; views have none.
func (s chunkSource) recycle(_ int, buf []byte) {
	if s.pool != nil {
		s.pool.Put(buf)
	}
}

// book accrues what the source moved.
func (s chunkSource) book(ex *metrics.ExchangeStats, bytes, chunks int64) {
	ex.AddStaged(bytes, chunks)
	if s.pool == nil {
		ex.AddZeroCopy(bytes, chunks)
	} else {
		ex.AddPool(s.pool.Stats())
	}
}

// partitionSource serves the chunks of a resident, partitioned working
// set: slices of the slab itself for zero-copy codecs, pooled encodes
// for every other codec.
func (r *run[T]) partitionSource() chunkSource {
	work, bounds, cd, recSize := r.work, r.bounds, r.cd, r.recSize
	if workBytes, ok := codec.View(cd, work); ok {
		return chunkSource{fill: func(dst int, off, n int64) ([]byte, error) {
			lo := int64(bounds[dst])*recSize + off
			return workBytes[lo : lo+n : lo+n], nil
		}}
	}
	pool := &codec.BufferPool{}
	return chunkSource{pool: pool, fill: func(dst int, off, n int64) ([]byte, error) {
		lo := bounds[dst] + int(off/recSize)
		return codec.EncodeSlice(cd, pool.Get(int(n)), work[lo:lo+int(n/recSize)]), nil
	}}
}

// chunkSink consumes the arriving chunks of each source's payload:
// drain is the comm.StagedOptions.Drain callback and must not retain
// chunk. land, when non-nil, holds each source's destination as bytes,
// for the exchange to post as receive regions (comm.Poster): a chunk
// the transport wrote there reaches drain already in place. merges,
// set by the merging sink, counts the merges drain has made.
type chunkSink struct {
	drain  func(src int, off int64, chunk []byte) error
	land   [][]byte
	merges *int
}

// recvSlab lays out the resident receive side: one contiguous slab, the
// local sort's scratch when that is large enough, holding each source's
// region in source-rank order from first on — the synchronous path
// starts at rank 0, the overlapped one at me+1 — each region as an
// empty chunk with exactly that region's capacity, and the sink that
// append-decodes an arriving chunk into its source's region — one
// memcpy for zero-copy codecs, none when the chunk was received in
// place, per-record Unmarshal otherwise. Zero-copy codecs also land the
// regions, so the exchange posts them. Chunks of a source arrive in
// offset order and never exceed the advertised count, so appending
// fills each region in place: afterwards chunks are the sorted runs the
// merge wants, and from rank 0 on the slab is their concatenation, the
// re-sort's working set.
func (r *run[T]) recvSlab(recv []int64, first int) ([]T, [][]T, chunkSink) {
	cd, recSize, p := r.cd, r.recSize, len(recv)
	chunks := make([][]T, p)
	slab := r.takeSlab(sum(recv) / recSize)
	var land [][]byte
	if codec.IsZeroCopy(cd) {
		land = make([][]byte, p)
	}
	var lo int64
	for i := range p {
		src := (first + i) % p
		hi := lo + recv[src]/recSize
		chunks[src] = slab[lo:lo:hi]
		if land != nil {
			land[src], _ = codec.View(cd, slab[lo:hi])
		}
		lo = hi
	}
	return slab, chunks, chunkSink{land: land, drain: func(src int, _ int64, chunk []byte) (err error) {
		chunks[src], err = codec.DecodeAppend(cd, chunks[src], chunk)
		return err
	}}
}

// stagedExchange is the data exchange: the one place a payload crosses
// the staged collective, synchronous (SdssAlltoallv) or, with overlap,
// asynchronous (SdssAlltoallvAsync) — this rank's sends then never wait
// on its receives, so the sink may merge as runs complete. It owns what
// every variant needs — the window reservation and its release, the
// exchange counters, the span (closed on every exit) — and leaves what
// differs to the source and the sink. Blocking exchange plus
// rank-ordered sinks is what carries stability end to end. The sink's
// regions are posted for the length of the collective. With overlap the
// own partition never crosses the collective: the merging sink reads it
// straight out of work, and a marshal codec never encodes it.
//
// The span's begin detail is the plan: the per-destination send counts
// in records, the chunk bound and the path. The staging window is one
// incoming chunk, one outgoing chunk when the source encodes into a
// buffer of its own (views of the work slab occupy nothing), and the
// sink's write buffer. A chunk is stage bytes, or — with no chunk
// bound — this rank's largest per-peer payload.
func (r *run[T]) stagedExchange(pl exchangePlan, overlap bool, src chunkSource, sink chunkSink) (comm.StagedStats, error) {
	sent := make([]int64, len(pl.send))
	for dst, b := range pl.send {
		sent[dst] = b / r.recSize
	}
	detail := map[string]any{
		"sent": sent, "overlap": overlap, "stage_bytes": pl.stage, "staged": pl.stage > 0, "zero_copy": src.pool == nil,
	}
	if pl.span == "spill" {
		// Each source with a payload becomes one run file.
		runs := 0
		for _, b := range pl.recv {
			if b > 0 {
				runs++
			}
		}
		detail["runs"] = runs
	}
	sp := trace.StartSpan(r.tr, r.rank, r.opt.Span, pl.span, detail)
	window := pl.stage
	if window == 0 {
		window = max(slices.Max(pl.send), slices.Max(pl.recv))
	}
	if src.pool != nil {
		window *= 2
	}
	window += pl.sinkBuf
	if err := r.acct.reserve(window); err != nil {
		sp.End(spanFailed)
		return comm.StagedStats{}, fmt.Errorf("core: staging window of %d bytes: %w", window, err)
	}
	r.opt.Exchange.ObservePeakStaging(window)
	defer func() { r.acct.release(window); sp.End(spanFailed) }() // a no-op End once the span has ended
	o := comm.StagedOptions{
		StageBytes:  pl.stage,
		SendBytes:   pl.send,
		RecvBytes:   pl.recv,
		Fill:        src.fill,
		FillDone:    src.recycle,
		Drain:       sink.drain,
		RecvRegions: sink.land,
		OnWindow:    r.opt.Exchange.AddWindow,
		Overlap:     overlap,
	}
	if overlap {
		me := r.wc.Rank()
		o.SendBytes, o.RecvBytes, o.RecvRegions = slices.Clone(pl.send), slices.Clone(pl.recv), slices.Clone(sink.land)
		o.SendBytes[me], o.RecvBytes[me] = 0, 0
		if o.RecvRegions != nil {
			o.RecvRegions[me] = nil
		}
	}
	st, err := r.wc.StagedAlltoallv(o)
	src.book(r.opt.Exchange, st.BytesStaged, st.Chunks)
	if err != nil {
		return st, fmt.Errorf("core: %s alltoall: %w", pl.span, err)
	}
	end := map[string]any{
		"send_records": sum(pl.send) / r.recSize, "recv_records": sum(pl.recv) / r.recSize,
		"recv_bytes": sum(pl.recv), "bytes_staged": st.BytesStaged, "chunks": st.Chunks,
	}
	if sink.merges != nil {
		end["merges"] = *sink.merges
	}
	sp.End(end)
	return st, nil
}

// localOrder turns the received rank-ordered chunks, the regions of slab
// in order, into this rank's sorted block (Fig. 1 lines 17-21): a k-way
// merge below τs — O(m log p), stable by source rank (SdssMergeAll) — or
// a re-sort of the slab at and above it — O(m log m) but independent of
// p (SdssLocalSort). Both use the spent work slab, which the synchronous
// exchange no longer reads. The merge runs between the two slabs when
// work holds every record, so the block lands in either: that route
// copies nothing, and it costs less CPU end to end than the in-slab one
// (docs/INTERNALS.md, step 7). Otherwise the merge runs inside the
// slab, through work as the buffer of each pair's smaller run
// (psort.MergeRunsIn). Work holds the largest of those whenever at most
// twice its records arrived; past that a buffer of that size is taken,
// and booked while it lives.
func (r *run[T]) localOrder(slab []T, chunks [][]T) ([]T, error) {
	r.tm.Start(metrics.PhaseLocalOrdering)
	merge := len(chunks) < r.opt.TauS
	osp := trace.StartSpan(r.tr, r.rank, r.opt.Span, "localorder", map[string]any{"merge": merge})
	detail := map[string]any{"kernel": "runs"}
	if merge {
		lens := make([]int, len(chunks))
		for i, c := range chunks {
			lens[i] = len(c)
		}
		if buf := r.work; len(buf) >= len(slab) {
			slab = psort.MergeRuns(slab, buf, lens, r.cmp)
		} else {
			if need := psort.MergeRunsNeed(lens); need > len(buf) {
				b := int64(need) * r.recSize
				if err := r.acct.reserve(b); err != nil {
					osp.End(spanFailed)
					return nil, fmt.Errorf("core: merge buffer of %d records: %w", need, err)
				}
				defer r.acct.release(b)
				buf = make([]T, need)
			}
			psort.MergeRunsIn(slab, buf, lens, r.cmp)
		}
	} else {
		r.scratch = r.work
		var err error
		if slab, err = r.order(slab, 0, detail); err != nil {
			osp.End(spanFailed)
			return nil, err
		}
	}
	detail["records"] = len(slab)
	osp.End(detail)
	return slab, nil
}

// mergeSink is the overlapped exchange's receive side (Fig. 1 lines
// 23-27, SdssMergeTwo): recvSlab's sink over a slab laid out from me+1
// on, merging a source's run into the running result the moment its
// region is full — while the rest of the exchange is still in flight,
// and at most p-1 merges whatever the stage size. The overlapped
// collective drains the sources in shift order, me-1, me-2, …, so that
// is the merge order: not rank order, hence no stable sort here. Only
// the fast (non-stable) sort may take this path. One span covers the
// whole phase: exchange and local ordering genuinely interleave here,
// so splitting them would be fiction.
//
// Arrivals and merges share one m-record slab, out: the spent input or
// the radix scratch (recvSlab), never the block the sender reads. Its
// regions lie in reverse shift order — me+1 at the front, me-1 just
// before the back — and the back is our own partition's place. The
// result grows from the back: merge k writes [start(run k), m), so it
// only ever overwrites runs already merged and its own run. The first
// reads our partition straight out of work and merges from the back
// (psort.MergeBack), never passing its run's unread records; later ones
// move their run into a spare — our partition's region of work, which
// nothing sends, once free and large enough, else one slab of the
// largest incoming run, booked until finish — and merge from the
// front, never passing the accumulated result's unread records. acc is
// always the left input, so every merge's inputs, their order and its
// ties are what merging into a fresh slab would give. finish, run once
// the exchange has returned, on every exit, drops the spare's booking
// and returns the block.
func (r *run[T]) mergeSink(recv []int64) (chunkSink, func() []T) {
	me := r.wc.Rank()
	out, runs, sink := r.recvSlab(recv, me+1)
	var largest int64 // bytes of the largest incoming run
	for src, b := range recv {
		if src != me {
			largest = max(largest, b)
		}
	}
	own := r.work[r.bounds[me]:r.bounds[me+1]]
	acc, spare, merges := own, []T(nil), 0
	decode := sink.drain
	sink.merges = &merges
	sink.drain = func(src int, off int64, chunk []byte) error {
		// Decode on the exchange clock (receive half of the transfer);
		// only the merge is local ordering.
		if err := decode(src, off, chunk); err != nil {
			return err
		}
		run := runs[src]
		if len(run) < cap(run) {
			return nil // more of src's run is on its way
		}
		r.tm.Start(metrics.PhaseLocalOrdering)
		defer r.tm.Start(metrics.PhaseExchange)
		dst := out[len(out)-len(acc)-len(run):]
		if merges == 0 {
			psort.MergeBack(dst, acc, run, r.cmp)
		} else {
			buf := own
			if len(run) > len(own) {
				if spare == nil {
					if err := r.acct.reserve(largest); err != nil {
						return fmt.Errorf("core: run spare of %d records: %w", largest/r.recSize, err)
					}
					spare = make([]T, largest/r.recSize)
				}
				buf = spare
			}
			psort.MergeInto(dst, acc, buf[:copy(buf, run)], r.cmp)
		}
		acc, merges = dst, merges+1
		return nil
	}
	return sink, func() []T {
		if spare != nil {
			r.acct.release(largest)
		}
		if merges == 0 {
			copy(out, acc) // nothing arrived: the block is our own partition
		}
		return out
	}
}

// exchangeAndOrder is Fig. 1 lines 11-27, the tail every driver
// shares: exchange the send counts, budget the receive buffer — where a
// collapsed partition dies of OOM on a real machine, and what doubles
// as the spill trigger — then move the data and order it on the path
// the spill vote and τo select. On success work's claim on the ledger
// has been settled and the output's made — it holds len(out) records
// where it held len(work) — work is the output, and exit the root span's
// end reason for the path taken, "completed" or "spilled". The skew observed
// here is output-side: the received partition sizes, the loads the
// paper's RDFA metric measures and skew-aware splitting bounds.
func (r *run[T]) exchangeAndOrder() (map[string]any, error) {
	wc, recSize := r.wc, r.recSize
	pl, err := r.plan(partition.Counts(r.bounds))
	if err != nil {
		return nil, err
	}
	pl.stage = effStage(r.opt.StageBytes, recSize)
	m := sum(pl.recv) / recSize
	overlap := !r.opt.Stable && wc.Size() <= r.opt.TauO
	if err := r.observeSkew(metrics.SkewExchange, m); err != nil {
		return nil, err
	}
	// With a spill tier configured, a receive side that does not fit
	// (or Spill.Force) diverts through disk runs instead of dying. The
	// decision is collective — the exchange is one collective, so if
	// any rank must spill, every rank takes the spilled path.
	reserveErr := r.acct.reserve(m * recSize)
	spill := false
	if r.opt.Spill != nil {
		if spill, err = agreeSpill(wc, r.opt.Spill.Force || reserveErr != nil); err != nil {
			return nil, err
		}
	}
	var out []T
	switch {
	case spill:
		if reserveErr == nil {
			r.acct.release(m * recSize)
		}
		r.scratch = nil // memory is what this path is short of
		out, err = r.spillExchange(pl)
	case reserveErr != nil:
		return nil, fmt.Errorf("core: receive buffer of %d records: %w", m, reserveErr)
	case overlap:
		r.sendFromInput(m)
		sink, finish := r.mergeSink(pl.recv)
		_, err = r.stagedExchange(pl, true, r.partitionSource(), sink)
		out = finish()
	default:
		r.sendFromInput(m)
		slab, chunks, sink := r.recvSlab(pl.recv, 0)
		if _, err = r.stagedExchange(pl, false, r.partitionSource(), sink); err == nil {
			out, err = r.localOrder(slab, chunks)
		}
	}
	if err != nil {
		return nil, err
	}
	if spill {
		r.exit = "spilled" // which handed the budget over itself, before reserving the output
	} else {
		r.acct.release(int64(len(r.work)) * recSize)
		r.exit = "completed"
	}
	r.work, r.localSnap = out, false
	return nil, nil
}
