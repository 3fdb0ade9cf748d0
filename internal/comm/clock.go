package comm

import (
	"fmt"
	"time"
)

// Clock-offset estimation over the fabric, so per-rank wall-clock
// timestamps (trace.Event.UnixUS) can be projected onto one global
// timeline. The protocol is the classic NTP ping-pong: rank 0 sends a
// probe, the peer answers with its own clock reading, and rank 0
// timestamps both ends of the round trip. Under the symmetric-delay
// assumption the peer's clock at the midpoint of the round trip
// should read (t0+t1)/2 on rank 0's clock, so
//
//	offset = t_peer − (t0+t1)/2
//
// is how far the peer's clock runs ahead of rank 0's. Each peer is
// probed several times and the sample with the smallest round trip
// wins — short trips bound the asymmetry error by rtt/2, typically
// tens of microseconds on a LAN against the millisecond-scale phases
// the spans measure. The error bound travels with the estimate as the
// RTT, so a reader can judge alignment quality.
//
// tagClock is reserved below every other internal band; clock frames
// can never match user or collective receives.
const tagClock int32 = -4096

// clockRounds is the default probe count per peer.
const clockRounds = 8

// ClockSync is the world's agreed clock geometry, identical on every
// rank after SyncClocks: Offsets[r] is rank r's clock minus rank 0's
// in microseconds (Offsets[0] == 0), RTTs[r] the round-trip time of
// the winning probe, an upper bound on 2× the estimate's error.
type ClockSync struct {
	Offsets []int64
	RTTs    []int64
}

// Offset returns the offset for rank r, 0 when out of range (a
// degenerate sync or a rank that never measured).
func (cs ClockSync) Offset(r int) int64 {
	if r < 0 || r >= len(cs.Offsets) {
		return 0
	}
	return cs.Offsets[r]
}

// SyncClocks measures every rank's clock offset against rank 0 and
// broadcasts the result, so all ranks return the same ClockSync. It
// is collective — every rank of c must call it, at world formation
// and again after a Reform (a shrunken world renumbers ranks, and its
// rank 0 may be a different host). rounds <= 0 uses the default.
func (c *Comm) SyncClocks(rounds int) (ClockSync, error) {
	if rounds <= 0 {
		rounds = clockRounds
	}
	p := c.Size()
	cs := ClockSync{Offsets: make([]int64, p), RTTs: make([]int64, p)}
	if p == 1 {
		return cs, nil
	}
	if c.Rank() == 0 {
		for r := 1; r < p; r++ {
			var bestOff, bestRTT int64
			for i := 0; i < rounds; i++ {
				t0 := time.Now()
				if err := c.sendInternal(r, tagClock, nil); err != nil {
					return ClockSync{}, fmt.Errorf("comm: clock probe to rank %d: %w", r, err)
				}
				buf, err := c.recvInternal(r, tagClock)
				if err != nil {
					return ClockSync{}, fmt.Errorf("comm: clock reply from rank %d: %w", r, err)
				}
				t1 := time.Now()
				vals, err := DecodeInt64s(buf)
				if err != nil || len(vals) != 1 {
					return ClockSync{}, fmt.Errorf("comm: clock reply from rank %d: bad payload", r)
				}
				rtt := t1.Sub(t0).Microseconds()
				mid := (t0.UnixMicro() + t1.UnixMicro()) / 2
				if off := vals[0] - mid; i == 0 || rtt < bestRTT {
					bestOff, bestRTT = off, rtt
				}
			}
			cs.Offsets[r], cs.RTTs[r] = bestOff, bestRTT
		}
	} else {
		for i := 0; i < rounds; i++ {
			if _, err := c.recvInternal(0, tagClock); err != nil {
				return ClockSync{}, fmt.Errorf("comm: clock probe: %w", err)
			}
			if err := c.sendInternal(0, tagClock, EncodeInt64s([]int64{time.Now().UnixMicro()})); err != nil {
				return ClockSync{}, fmt.Errorf("comm: clock reply: %w", err)
			}
		}
	}
	// Everyone learns the full geometry; the offsets ride the ordinary
	// broadcast (its own tag band, so no interference with the probes).
	var payload []byte
	if c.Rank() == 0 {
		payload = EncodeInt64s(append(append([]int64{}, cs.Offsets...), cs.RTTs...))
	}
	buf, err := c.Bcast(0, payload)
	if err != nil {
		return ClockSync{}, fmt.Errorf("comm: clock bcast: %w", err)
	}
	vals, err := DecodeInt64s(buf)
	if err != nil || len(vals) != 2*p {
		return ClockSync{}, fmt.Errorf("comm: clock bcast: bad payload")
	}
	copy(cs.Offsets, vals[:p])
	copy(cs.RTTs, vals[p:])
	return cs, nil
}
