package comm

import (
	"cmp"
	"fmt"
)

// tagStaged is the reserved tag band of the staged all-to-all. A single
// tag suffices: each ordered (src, dst) pair is visited by exactly one
// round of the schedule, and chunks within a pair ride the transport's
// non-overtaking FIFO order.
const tagStaged int32 = -3072

// StagedOptions parameterises StagedAlltoallv. The caller supplies the
// payload through callbacks rather than materialised buffers — that is
// the point: at no time does the collective hold more than one stage
// chunk per direction, so peak memory is bounded by the stage window
// regardless of how many bytes move.
type StagedOptions struct {
	// StageBytes bounds the size of one chunk. Values <= 0 mean
	// unbounded: each peer's whole payload moves as a single chunk.
	StageBytes int64
	// SendBytes[dst] is the exact number of payload bytes this rank
	// sends to dst; RecvBytes[src] the bytes it will receive from src.
	// Both must have one entry per rank and every rank must agree (the
	// usual count exchange precedes the data exchange).
	SendBytes []int64
	// RecvBytes is the receive-side counterpart of SendBytes.
	RecvBytes []int64
	// Fill produces the next outgoing chunk for dst: the n bytes at
	// payload offset off, encoded into a buffer the caller owns
	// (typically from a codec.BufferPool) — or, on the zero-copy path,
	// a view aliasing the caller's record slab directly. Either is
	// safe: the collective never retains the buffer past the Send that
	// consumes it, and the transports do not mutate send buffers. A
	// caller returning aliased views must not mutate the viewed
	// records until the collective returns.
	Fill func(dst int, off, n int64) ([]byte, error)
	// FillDone, when non-nil, is called once the chunk buffer returned
	// by Fill has been handed to the transport and may be recycled.
	FillDone func(dst int, buf []byte)
	// Drain consumes one arriving chunk from src, starting at payload
	// offset off. Drain must not retain chunk after returning (the
	// zero-copy path memcpys it into the receive slab; the generic
	// path decodes it record by record).
	Drain func(src int, off int64, chunk []byte) error
	// RecvRegions, when non-nil, holds where each source's payload ends
	// up: RecvRegions[src] is RecvBytes[src] bytes (or empty), the
	// region Drain fills for src. The collective posts every peer's
	// region to the transport (see Poster) before its first round and
	// revokes the posts before it returns, on every exit; chunks that
	// land in place reach Drain already at their offset in the region.
	// Nil, or a transport that cannot post, means every chunk arrives
	// in a buffer of its own.
	RecvRegions [][]byte
	// OnWindow, when non-nil, observes live stage-window occupancy: the
	// collective calls it with +n when it takes hold of an n-byte chunk
	// buffer (outgoing chunk filled, incoming chunk received) and -n
	// when it lets go, on every exit path. The running sum is the
	// staging window in bytes — at most one outgoing plus one incoming
	// chunk by construction — and returns to its starting value when
	// the collective exits, error paths included. Must be cheap and
	// safe for concurrent use.
	OnWindow func(delta int64)
	// Overlap runs the send stream, every round of it, on a goroutine
	// of its own while the caller's goroutine receives and drains
	// (Fig. 1's SdssAlltoallvAsync), so a Drain that takes its time —
	// merging a completed run — never holds back this rank's sends.
	// Fill and FillDone then run concurrently with Drain. Both streams
	// are joined before the collective returns, on every exit.
	Overlap bool
}

// window reports a change of stage-window occupancy to OnWindow.
func (o *StagedOptions) window(delta int64) {
	if o.OnWindow != nil {
		o.OnWindow(delta)
	}
}

// StagedStats reports what a StagedAlltoallv moved.
type StagedStats struct {
	// BytesStaged is the total payload that passed through stage
	// buffers (network chunks plus the self-copy).
	BytesStaged int64
	// Chunks is the number of stage chunks those bytes were cut into.
	Chunks int64
}

func (o *StagedOptions) validate(p, me int) error {
	if len(o.SendBytes) != p || len(o.RecvBytes) != p {
		return fmt.Errorf("comm: staged alltoallv needs %d send/recv counts, got %d/%d",
			p, len(o.SendBytes), len(o.RecvBytes))
	}
	if o.Fill == nil || o.Drain == nil {
		return fmt.Errorf("comm: staged alltoallv needs Fill and Drain callbacks")
	}
	if o.RecvRegions != nil && len(o.RecvRegions) != p {
		return fmt.Errorf("comm: staged alltoallv needs %d receive regions, got %d", p, len(o.RecvRegions))
	}
	if o.SendBytes[me] != o.RecvBytes[me] {
		return fmt.Errorf("comm: staged alltoallv: self send %d != self recv %d bytes", o.SendBytes[me], o.RecvBytes[me])
	}
	for r := 0; r < p; r++ {
		if o.SendBytes[r] < 0 || o.RecvBytes[r] < 0 {
			return fmt.Errorf("comm: staged alltoallv: negative byte count for rank %d", r)
		}
		if o.RecvRegions != nil && len(o.RecvRegions[r]) != 0 && int64(len(o.RecvRegions[r])) != o.RecvBytes[r] {
			return fmt.Errorf("comm: staged alltoallv: %d-byte receive region for rank %d, which sends %d",
				len(o.RecvRegions[r]), r, o.RecvBytes[r])
		}
	}
	return nil
}

// chunkSize returns the size of the chunk at offset off of a total-byte
// payload under the stage bound.
func chunkSize(stage, off, total int64) int64 {
	n := total - off
	if stage > 0 && n > stage {
		n = stage
	}
	return n
}

// StagedAlltoallv runs a personalised all-to-all in bounded stages on
// a shift schedule — round k sends to me+k and receives from me-k —
// with each peer's payload cut into chunks of at most StageBytes. On
// the eager transports every round is a permutation. By default the
// send and receive streams of a round interleave chunk by chunk, so a
// rank holds at most one outgoing and one incoming chunk at a time;
// eager Send makes the interleaving deadlock-free. With Overlap the
// send stream runs on a goroutine of its own instead (see
// StagedOptions.Overlap).
//
// Semantics match Alltoall: chunks from a given source arrive at
// monotonically increasing offsets (FIFO per pair), so a Drain that
// appends reassembles each source's payload in order. In either mode
// Drain runs on the caller's goroutine and sees the sources in shift
// order: itself (round 0), then me-1, me-2, …, each source's chunks
// all before the next source's. Every rank of c must call it with
// agreeing SendBytes/RecvBytes matrices.
func (c *Comm) StagedAlltoallv(o StagedOptions) (st StagedStats, err error) {
	p := len(c.group)
	me := c.rank
	if err := o.validate(p, me); err != nil {
		return st, err
	}

	// Post every peer's region before any round, so that its chunks —
	// which may arrive while earlier rounds run — land in place; the
	// self region is filled by Drain below.
	for src, region := range o.RecvRegions {
		if src != me && c.post(src, tagStaged, region) {
			defer c.revoke(src, tagStaged)
		}
	}

	// Round 0: the self "exchange" — chunked through the same Fill /
	// Drain pipeline so the caller sees one code path and the stage
	// window bounds the self-copy too.
	if err := c.sendAll(&o, &st, me); err != nil {
		return st, err
	}

	if o.Overlap {
		sent, sends := make(chan error, 1), StagedStats{}
		go func() {
			var err error
			for k := 1; k < p && err == nil; k++ {
				err = c.sendAll(&o, &sends, (me+k)%p)
			}
			sent <- err
		}()
		// Join the sender on every exit: Fill views the caller's data.
		defer func() {
			serr := <-sent
			st.BytesStaged += sends.BytesStaged
			st.Chunks += sends.Chunks
			err = cmp.Or(err, serr)
		}()
	}

	for k := 1; k < p; k++ {
		sendTo, recvFrom := (me+k)%p, (me-k+p)%p
		sTotal, rTotal := o.SendBytes[sendTo], o.RecvBytes[recvFrom]
		var sOff, rOff int64
		if o.Overlap {
			sOff = sTotal // the sender goroutine has this round's sends
		}
		for sOff < sTotal || rOff < rTotal {
			if sOff < sTotal {
				err = c.sendChunk(&o, &st, sendTo, &sOff)
			}
			if err == nil && rOff < rTotal {
				err = c.recvChunk(&o, recvFrom, &rOff)
			}
			if err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// sendAll sends dst's whole payload, chunk by chunk.
func (c *Comm) sendAll(o *StagedOptions, st *StagedStats, dst int) error {
	for off := int64(0); off < o.SendBytes[dst]; {
		if err := c.sendChunk(o, st, dst, &off); err != nil {
			return err
		}
	}
	return nil
}

// sendChunk is the send step: it fills the chunk at offset *off of
// dst's payload, hands it to the transport — or to Drain when dst is
// this rank — books it on st and advances *off past it.
func (c *Comm) sendChunk(o *StagedOptions, st *StagedStats, dst int, off *int64) error {
	n := chunkSize(o.StageBytes, *off, o.SendBytes[dst])
	buf, err := o.Fill(dst, *off, n)
	if err != nil {
		return fmt.Errorf("comm: staged fill for rank %d: %w", dst, err)
	}
	if int64(len(buf)) != n {
		return fmt.Errorf("comm: staged fill for rank %d returned %d bytes, want %d", dst, len(buf), n)
	}
	o.window(n)
	defer o.window(-n)
	if dst == c.rank {
		err = o.Drain(dst, *off, buf)
	} else {
		err = c.sendInternal(dst, tagStaged, buf)
	}
	if o.FillDone != nil {
		o.FillDone(dst, buf)
	}
	if err != nil {
		return fmt.Errorf("comm: staged send to rank %d: %w", dst, err)
	}
	st.BytesStaged += n
	st.Chunks++
	*off += n
	return nil
}

// recvChunk is the receive step: it takes the next chunk from src,
// which must fit what src advertised past offset *off, drains it and
// advances *off past it.
func (c *Comm) recvChunk(o *StagedOptions, src int, off *int64) error {
	chunk, err := c.recvInternal(src, tagStaged)
	if err != nil {
		return fmt.Errorf("comm: staged recv from rank %d: %w", src, err)
	}
	n := int64(len(chunk))
	o.window(n)
	defer o.window(-n)
	if n == 0 || *off+n > o.RecvBytes[src] {
		return fmt.Errorf("comm: staged recv from rank %d: %d bytes at offset %d exceeds advertised %d",
			src, n, *off, o.RecvBytes[src])
	}
	if err := o.Drain(src, *off, chunk); err != nil {
		return fmt.Errorf("comm: staged drain from rank %d: %w", src, err)
	}
	*off += n
	return nil
}
