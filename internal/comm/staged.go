package comm

import "fmt"

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
	// when it lets go. The running sum is the staging window in bytes —
	// at most one outgoing plus one incoming chunk by construction —
	// and is guaranteed to return to its starting value when the
	// collective exits, error paths included. Must be cheap and safe
	// for concurrent use.
	OnWindow func(delta int64)
}

// StagedStats reports what a StagedAlltoallv moved.
type StagedStats struct {
	// BytesStaged is the total payload that passed through stage
	// buffers (network chunks plus the self-copy).
	BytesStaged int64
	// Chunks is the number of stage chunks those bytes were cut into.
	Chunks int64
	// Rounds is the number of schedule rounds executed (= comm size).
	Rounds int
}

func (o *StagedOptions) validate(p int) error {
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

// StagedAlltoallv runs a personalised all-to-all in bounded stages: a
// 1-factor-style peer schedule (XOR pairing for power-of-two sizes, a
// shift schedule otherwise) with each peer's payload cut into chunks of
// at most StageBytes. Within a round the send and receive streams
// interleave chunk by chunk, so a rank holds at most one outgoing and
// one incoming chunk at a time; the transports' eager Send semantics
// make the interleaving deadlock-free.
//
// Semantics match Alltoall: chunks from a given source arrive at
// monotonically increasing offsets (FIFO per pair), so a Drain that
// appends reassembles each source's payload in order. Every rank of c
// must call it with agreeing SendBytes/RecvBytes matrices.
func (c *Comm) StagedAlltoallv(o StagedOptions) (StagedStats, error) {
	p := len(c.group)
	me := c.rank
	var st StagedStats
	if err := o.validate(p); err != nil {
		return st, err
	}
	stage := o.StageBytes

	// win tracks the chunk bytes this collective currently holds and
	// mirrors them into OnWindow; the deferred release makes the
	// occupancy contribution net zero on every exit path.
	var winHeld int64
	win := func(d int64) {
		if o.OnWindow != nil {
			o.OnWindow(d)
		}
		winHeld += d
	}
	defer func() {
		if winHeld != 0 {
			win(-winHeld)
		}
	}()

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
	if o.SendBytes[me] != o.RecvBytes[me] {
		return st, fmt.Errorf("comm: staged alltoallv: self send %d != self recv %d bytes",
			o.SendBytes[me], o.RecvBytes[me])
	}
	for off := int64(0); off < o.SendBytes[me]; {
		n := chunkSize(stage, off, o.SendBytes[me])
		buf, err := o.Fill(me, off, n)
		if err != nil {
			return st, fmt.Errorf("comm: staged fill for self: %w", err)
		}
		if int64(len(buf)) != n {
			return st, fmt.Errorf("comm: staged fill for self returned %d bytes, want %d", len(buf), n)
		}
		win(n)
		if err := o.Drain(me, off, buf); err != nil {
			return st, fmt.Errorf("comm: staged drain for self: %w", err)
		}
		if o.FillDone != nil {
			o.FillDone(me, buf)
		}
		win(-n)
		st.BytesStaged += n
		st.Chunks++
		off += n
	}
	st.Rounds = 1

	pow2 := p&(p-1) == 0
	for k := 1; k < p; k++ {
		sendTo, recvFrom := (me+k)%p, (me-k+p)%p
		if pow2 {
			// XOR pairing: a true 1-factorisation — every round is a
			// perfect matching, each pair exchanging both ways.
			sendTo = me ^ k
			recvFrom = sendTo
		}
		sTotal, rTotal := o.SendBytes[sendTo], o.RecvBytes[recvFrom]
		var sOff, rOff int64
		for sOff < sTotal || rOff < rTotal {
			if sOff < sTotal {
				n := chunkSize(stage, sOff, sTotal)
				buf, err := o.Fill(sendTo, sOff, n)
				if err != nil {
					return st, fmt.Errorf("comm: staged fill for rank %d: %w", sendTo, err)
				}
				if int64(len(buf)) != n {
					return st, fmt.Errorf("comm: staged fill for rank %d returned %d bytes, want %d",
						sendTo, len(buf), n)
				}
				win(n)
				if err := c.sendInternal(sendTo, tagStaged, buf); err != nil {
					return st, fmt.Errorf("comm: staged send to rank %d: %w", sendTo, err)
				}
				if o.FillDone != nil {
					o.FillDone(sendTo, buf)
				}
				win(-n)
				st.BytesStaged += n
				st.Chunks++
				sOff += n
			}
			if rOff < rTotal {
				chunk, err := c.recvInternal(recvFrom, tagStaged)
				if err != nil {
					return st, fmt.Errorf("comm: staged recv from rank %d: %w", recvFrom, err)
				}
				win(int64(len(chunk)))
				if int64(len(chunk)) == 0 || rOff+int64(len(chunk)) > rTotal {
					return st, fmt.Errorf("comm: staged recv from rank %d: %d bytes at offset %d exceeds advertised %d",
						recvFrom, len(chunk), rOff, rTotal)
				}
				if err := o.Drain(recvFrom, rOff, chunk); err != nil {
					return st, fmt.Errorf("comm: staged drain from rank %d: %w", recvFrom, err)
				}
				win(-int64(len(chunk)))
				rOff += int64(len(chunk))
			}
		}
		st.Rounds++
	}
	return st, nil
}
