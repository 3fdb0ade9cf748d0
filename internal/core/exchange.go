package core

import (
	"fmt"
	"slices"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
	"sdssort/internal/trace"
)

// The data exchange. Fig. 1 has two flavours — the synchronous
// all-to-all followed by merge-or-resort (lines 16-21) and the
// asynchronous one that merges each arrival (lines 23-27) — and this
// file has one function for each: stagedExchange and overlapExchange.
// Everything else is a *source* that produces a destination's outgoing
// chunks (partitionSource here, runSource in spillstream.go) or a
// *sink* that consumes a source rank's arriving chunks (recvSlab here,
// recvSpool in spill.go).

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
	rank    int     // the rank spans are attributed to: the sort's, which after node merging is not wc.Rank()
	recSize int64   // wire bytes per record
	send    []int64 // payload bytes to each destination
	recv    []int64 // payload bytes from each source
	stage   int64   // chunk bound, a whole number of records; 0 = one chunk per peer
	sinkBuf int64   // write buffer the sink holds for the length of the exchange
}

// spanFailed closes a span on an error exit.
var spanFailed = map[string]any{"reason": "error"}

// open starts the exchange's span and reserves its staging window: one
// incoming chunk, one outgoing chunk when the source encodes into a
// buffer of its own (views of the work slab occupy nothing), and the
// sink's write buffer. A chunk is stage bytes, or — with no chunk bound
// — this rank's largest per-peer payload. The returned func releases
// the window and, unless the caller ended the span first, closes it as
// failed; callers defer it.
func (pl exchangePlan) open(overlap bool, src chunkSource, opt Options, acct *memAcct) (*trace.Span, func(), error) {
	sp := trace.StartSpan(opt.tracer(), pl.rank, opt.Span, pl.span, map[string]any{
		"overlap": overlap, "staged": pl.stage > 0, "zero_copy": src.pool == nil,
	})
	window := pl.stage
	if window == 0 {
		window = max(slices.Max(pl.send), slices.Max(pl.recv))
	}
	if src.pool != nil {
		window *= 2
	}
	window += pl.sinkBuf
	if err := acct.reserve(window); err != nil {
		sp.End(spanFailed)
		return nil, nil, fmt.Errorf("core: staging window of %d bytes: %w", window, err)
	}
	opt.Exchange.ObservePeakStaging(window)
	return sp, func() { acct.release(window); sp.End(spanFailed) }, nil
}

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
func partitionSource[T any](work []T, bounds []int, cd codec.Codec[T], recSize int64) chunkSource {
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

// chunkSink consumes one arriving chunk of src's payload; it is the
// comm.StagedOptions.Drain callback and must not retain chunk.
type chunkSink func(src int, off int64, chunk []byte) error

// recvSlab lays out the resident receive side: one contiguous slab in
// source-rank order, each source's region of it as an empty chunk with
// exactly that region's capacity, and the sink that append-decodes an
// arriving chunk into its source's region — one memcpy for zero-copy
// codecs, per-record Unmarshal otherwise. Chunks of a source arrive in
// offset order and never exceed the advertised count, so appending
// fills each region in place: afterwards chunks are the rank-ordered
// sorted runs the merge wants, and the slab is their concatenation, the
// re-sort's working set.
func recvSlab[T any](recv []int64, cd codec.Codec[T], recSize int64) ([]T, [][]T, chunkSink) {
	chunks := make([][]T, len(recv))
	var total int64
	for _, b := range recv {
		total += b / recSize
	}
	slab := make([]T, total)
	var lo int64
	for src, b := range recv {
		hi := lo + b/recSize
		chunks[src] = slab[lo:lo:hi]
		lo = hi
	}
	return slab, chunks, func(src int, _ int64, chunk []byte) (err error) {
		chunks[src], err = codec.DecodeAppend(cd, chunks[src], chunk)
		return err
	}
}

// stagedExchange is the synchronous data exchange (SdssAlltoallv): the
// one place a payload crosses the staged collective. It owns what every
// variant needs — the window reservation and its release, the exchange
// counters, the span (closed on every exit) — and leaves what differs
// to the source and the sink. Blocking exchange plus rank-ordered sinks
// is what carries stability end to end.
func stagedExchange(wc *comm.Comm, pl exchangePlan, src chunkSource, sink chunkSink, opt Options, acct *memAcct) (comm.StagedStats, error) {
	sp, done, err := pl.open(false, src, opt, acct)
	if err != nil {
		return comm.StagedStats{}, err
	}
	defer done()
	st, err := wc.StagedAlltoallv(comm.StagedOptions{
		StageBytes: pl.stage,
		SendBytes:  pl.send,
		RecvBytes:  pl.recv,
		Fill:       src.fill,
		FillDone:   src.recycle,
		Drain:      sink,
		OnWindow:   opt.Exchange.AddWindow,
	})
	src.book(opt.Exchange, st.BytesStaged, st.Chunks)
	if err != nil {
		return st, fmt.Errorf("core: %s alltoall: %w", pl.span, err)
	}
	sp.End(map[string]any{
		"send_records": sum(pl.send) / pl.recSize, "recv_records": sum(pl.recv) / pl.recSize,
		"recv_bytes": sum(pl.recv), "bytes_staged": st.BytesStaged, "chunks": st.Chunks,
	})
	return st, nil
}

// localOrder turns the received rank-ordered chunks into this rank's
// sorted block (Fig. 1 lines 17-21): a k-way merge below τs — O(m log p),
// stable by source rank (SdssMergeAll) — or a re-sort of the slab at and
// above it — O(m log m) but independent of p (SdssLocalSort), radix
// dispatched for integer-keyed codecs unless the sort is stable.
func localOrder[T any](slab []T, chunks [][]T, rank int, cd codec.Codec[T], cmp func(a, b T) int, opt Options) []T {
	merge := len(chunks) < opt.TauS
	osp := trace.StartSpan(opt.tracer(), rank, opt.Span, "localorder", map[string]any{"merge": merge})
	if merge {
		slab = psort.KWayMerge(chunks, cmp)
	} else if opt.Stable || !radix.DispatchLocal(slab, cd, cmp) {
		psort.ParallelSort(slab, opt.cores(), opt.Stable, cmp)
	}
	osp.End(map[string]any{"records": len(slab)})
	return slab
}

// overlapExchange is the asynchronous path (Fig. 1 lines 23-27):
// receives from all peers are posted up front, a sender goroutine
// streams the source's chunks out without waiting, and each arriving
// chunk is merged into the running result while the rest of the
// exchange is still in flight (SdssAlltoallvAsync + SdssMergeTwo). Only
// the fast (non-stable) sort may take this path. One span covers the
// whole phase: exchange and local ordering genuinely interleave here,
// so splitting them would be fiction.
func overlapExchange[T any](wc *comm.Comm, work []T, bounds []int, pl exchangePlan, cd codec.Codec[T], cmp func(a, b T) int, opt Options, tm *metrics.PhaseTimer, acct *memAcct) ([]T, error) {
	me := wc.Rank()
	src := partitionSource(work, bounds, cd, pl.recSize)
	sp, done, err := pl.open(true, src, opt, acct)
	if err != nil {
		return nil, err
	}
	defer done()

	// remaining[from] is how many payload bytes from still owes us; its
	// receive is reposted per chunk until that hits zero.
	remaining := slices.Clone(pl.recv)
	remaining[me] = 0
	var (
		reqs     []*comm.Request
		srcs     []int
		consumed []bool
	)
	post := func(from int) error {
		r, err := wc.Irecv(from, tagExchange)
		if err != nil {
			return fmt.Errorf("core: irecv from %d: %w", from, err)
		}
		reqs, srcs, consumed = append(reqs, r), append(srcs, from), append(consumed, false)
		return nil
	}
	for from, owed := range remaining {
		if owed > 0 {
			if err := post(from); err != nil {
				return nil, err
			}
		}
	}
	// The eager transports never block the sender on a matching receive.
	sendErr := make(chan error, 1)
	go func() { sendErr <- pl.sendChunks(wc, src, opt.Exchange) }()

	// Seed the result with our own slice; each arrival merges in.
	out := append([]T(nil), work[bounds[me]:bounds[me+1]]...)
	for {
		i, buf, err := comm.WaitAnyMask(reqs, consumed)
		if err != nil {
			return nil, fmt.Errorf("core: overlapped recv: %w", err)
		}
		if i < 0 {
			break
		}
		from, n := srcs[i], int64(len(buf))
		// Decode on the exchange clock (receive half of the transfer);
		// only the merge is local ordering. The encoded buffer counts
		// toward the staging window until it has been decoded.
		opt.Exchange.AddWindow(n)
		chunk, err := codec.DecodeSlice(cd, buf)
		opt.Exchange.AddWindow(-n)
		if err != nil {
			return nil, fmt.Errorf("core: decode from rank %d: %w", from, err)
		}
		if remaining[from] -= n; remaining[from] < 0 {
			return nil, fmt.Errorf("core: rank %d sent %d bytes beyond its advertised count", from, -remaining[from])
		}
		if remaining[from] > 0 {
			if err := post(from); err != nil {
				return nil, err
			}
		}
		tm.Start(metrics.PhaseLocalOrdering)
		out = psort.MergeTwo(out, chunk, cmp)
		tm.Start(metrics.PhaseExchange)
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}
	sp.End(map[string]any{
		"recv_records": int64(len(out)), "recv_bytes": int64(len(out)) * pl.recSize,
		"send_records": int64(len(work)),
	})
	return out, nil
}

// sendChunks is overlapExchange's sender: it walks the other ranks in
// shift order and streams each one's payload through src chunk by
// chunk, so at most one outgoing chunk is alive.
func (pl exchangePlan) sendChunks(wc *comm.Comm, src chunkSource, ex *metrics.ExchangeStats) error {
	p, me := wc.Size(), wc.Rank()
	var bytes, chunks int64
	defer func() { src.book(ex, bytes, chunks) }()
	for k := 1; k < p; k++ {
		dst := (me + k) % p
		for off := int64(0); off < pl.send[dst]; {
			n := pl.send[dst] - off
			if pl.stage > 0 {
				n = min(n, pl.stage)
			}
			buf, err := src.fill(dst, off, n)
			if err != nil {
				return err
			}
			ex.AddWindow(n)
			err = wc.Send(dst, tagExchange, buf)
			src.recycle(dst, buf)
			ex.AddWindow(-n)
			if err != nil {
				return fmt.Errorf("core: staged send to %d: %w", dst, err)
			}
			bytes, chunks, off = bytes+n, chunks+1, off+n
		}
	}
	return nil
}

// exchangeAndOrder is Fig. 1 lines 11-27, the tail every driver
// shares: exchange the send counts, budget the receive buffer — where a
// collapsed partition dies of OOM on a real machine, and what doubles
// as the spill trigger — then move the data and order it on the path
// the spill vote and τo select. On success work's claim on acct has
// been settled and the output's made, so acct holds len(out) records
// where it held len(work); reason is the sort.done reason of the path
// taken, "completed" or "spilled".
func exchangeAndOrder[T any](wc *comm.Comm, rank int, work []T, bounds []int, cd codec.Codec[T], cmp func(a, b T) int, opt Options, tm *metrics.PhaseTimer, acct *memAcct) (out []T, reason string, err error) {
	p := wc.Size()
	tr := opt.tracer()
	tm.Start(metrics.PhaseExchange)
	scounts := partition.Counts(bounds)
	tr.Emit(rank, "partition.histogram", histogramDetail(scounts))
	rcounts, err := exchangeCounts(wc, scounts)
	if err != nil {
		return nil, "", fmt.Errorf("core: count exchange: %w", err)
	}
	m := sum(rcounts)
	recSize := int64(cd.Size())
	pl := exchangePlan{
		span: "exchange", rank: rank, recSize: recSize,
		send: scale(scounts, recSize), recv: scale(rcounts, recSize),
		stage: effStage(opt.StageBytes, recSize),
	}
	overlap := !opt.Stable && p <= opt.TauO
	tr.Emit(rank, "exchange.plan", map[string]any{
		"send_records": len(work), "recv_records": m, "overlap": overlap,
		"stage_bytes": pl.stage, "staged": pl.stage > 0, "zero_copy": codec.IsZeroCopy(cd),
	})
	// Output-side skew: the received partition sizes — the loads the
	// paper's RDFA metric measures and skew-aware splitting bounds.
	if err := observeSkew(wc, metrics.SkewExchange, m, opt, tr, rank); err != nil {
		return nil, "", err
	}
	// With a spill tier configured, a receive side that does not fit
	// (or Spill.Force) diverts through disk runs instead of dying. The
	// decision is collective — the exchange is one collective, so if
	// any rank must spill, every rank takes the spilled path.
	reserveErr := acct.reserve(m * recSize)
	if opt.Spill != nil {
		spill, err := agreeSpill(wc, opt.Spill.Force || reserveErr != nil)
		if err != nil {
			return nil, "", err
		}
		if spill {
			if reserveErr == nil {
				acct.release(m * recSize)
			}
			out, err = spillExchange(wc, work, bounds, pl, cd, cmp, opt, tm, acct)
			return out, "spilled", err
		}
	}
	if reserveErr != nil {
		return nil, "", fmt.Errorf("core: receive buffer of %d records: %w", m, reserveErr)
	}
	if overlap {
		out, err = overlapExchange(wc, work, bounds, pl, cd, cmp, opt, tm, acct)
	} else {
		slab, chunks, sink := recvSlab(pl.recv, cd, recSize)
		if _, err = stagedExchange(wc, pl, partitionSource(work, bounds, cd, recSize), sink, opt, acct); err == nil {
			tm.Start(metrics.PhaseLocalOrdering)
			out = localOrder(slab, chunks, rank, cd, cmp, opt)
		}
	}
	if err != nil {
		return nil, "", err
	}
	acct.release(int64(len(work)) * recSize)
	return out, "completed", nil
}
