// Package simnet is a LogGP-style network cost model layered under the
// comm runtime. It stands in for the Cray Aries interconnect of the
// paper's testbed: every message is charged a per-message overhead o, a
// wire latency L, and a serialisation cost size/bandwidth, with cheaper
// constants for node-local (shared-memory) traffic.
//
// Two modes are supported:
//
//   - Virtual: per-rank simulated clocks advance by the modeled costs
//     plus measured compute time; nothing slows down for real. Message
//     arrival times piggyback on the payload, so waiting for a message
//     synchronises the receiver's clock with the sender's — collectives
//     and barriers come out right without the model knowing about them.
//     The fabric's makespan is the maximum clock after the run.
//
//   - Sleep: the modeled costs are also slept for real, so wall-clock
//     measurements (and genuine computation/communication overlap, as in
//     the paper's Fig 5b) reflect the modeled network. Constants should
//     be chosen well above timer granularity (≥ ~100µs) in this mode.
//
// The model is deliberately simple — the experiments need the paper's
// crossover shapes (per-message cost versus bandwidth cost, overlap
// versus no overlap), not cycle accuracy.
package simnet

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"sdssort/internal/comm"
)

// Mode selects how modeled time is applied.
type Mode int

const (
	// Virtual accounts modeled time on per-rank clocks only.
	Virtual Mode = iota
	// Sleep additionally sleeps the modeled communication costs so
	// they show up in wall-clock time.
	Sleep
)

// Params is one link class's cost model.
type Params struct {
	// Overhead is the per-message CPU cost at each endpoint (LogGP o).
	Overhead time.Duration
	// Latency is the in-flight wire time per message (LogGP L).
	Latency time.Duration
	// Bandwidth is the sustained bytes/second of one rank's injection.
	Bandwidth float64
}

// cost returns the sender-side cost and the in-flight delay for a
// message of n bytes.
func (p Params) cost(n int) (send, flight time.Duration) {
	send = p.Overhead
	if p.Bandwidth > 0 {
		send += time.Duration(float64(n) / p.Bandwidth * float64(time.Second))
	}
	return send, p.Latency
}

// Profile describes a machine's interconnect: separate parameters for
// cross-node (network) and intra-node (shared memory) messages.
type Profile struct {
	Name   string
	Remote Params
	Local  Params
	// ComputeScale multiplies measured real compute time before it is
	// charged to the virtual clock (1.0 = this host's CPU).
	ComputeScale float64
}

// Aries approximates the paper's Cray Aries numbers (0.25-3.7µs MPI
// latency, 8GB/s per-rank bandwidth), usable in Virtual mode.
func Aries() Profile {
	return Profile{
		Name:         "aries",
		Remote:       Params{Overhead: 500 * time.Nanosecond, Latency: 2 * time.Microsecond, Bandwidth: 8 << 30},
		Local:        Params{Overhead: 100 * time.Nanosecond, Latency: 200 * time.Nanosecond, Bandwidth: 32 << 30},
		ComputeScale: 1,
	}
}

// Fabric owns the per-rank virtual clocks for one simulated machine.
type Fabric struct {
	profile Profile
	mode    Mode
	mu      sync.Mutex
	clocks  []time.Duration // virtual time per world rank
}

// NewFabric creates a fabric for size ranks.
func NewFabric(profile Profile, mode Mode, size int) *Fabric {
	if profile.ComputeScale == 0 {
		profile.ComputeScale = 1
	}
	return &Fabric{profile: profile, mode: mode, clocks: make([]time.Duration, size)}
}

// Wrap decorates a rank's transport with the cost model. Use it as the
// cluster launcher's WrapTransport hook.
func (f *Fabric) Wrap(tr comm.Transport) comm.Transport {
	return &transport{Transport: tr, f: f, rank: tr.Rank(), lastReal: time.Now()}
}

// Clock returns rank r's virtual time.
func (f *Fabric) Clock(r int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clocks[r]
}

// Makespan returns the maximum virtual clock — the simulated parallel
// runtime of everything executed so far.
func (f *Fabric) Makespan() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var m time.Duration
	for _, c := range f.clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// Reset zeroes all clocks.
func (f *Fabric) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.clocks {
		f.clocks[i] = 0
	}
}

func (f *Fabric) params(local bool) Params {
	if local {
		return f.profile.Local
	}
	return f.profile.Remote
}

// advance adds d to rank r's clock and returns the new value.
func (f *Fabric) advance(r int, d time.Duration) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clocks[r] += d
	return f.clocks[r]
}

// syncTo raises rank r's clock to at least t and returns the new value.
func (f *Fabric) syncTo(r int, t time.Duration) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t > f.clocks[r] {
		f.clocks[r] = t
	}
	return f.clocks[r]
}

// transport charges the cost model around a base transport. A rank's
// transport may be used from several goroutines (the overlapped
// exchange's sender beside its receive loop), so clock updates go
// through the fabric's lock; the compute timer uses its own.
type transport struct {
	comm.Transport
	f    *Fabric
	rank int

	computeMu sync.Mutex
	lastReal  time.Time
}

// chargeCompute converts real time elapsed since the last communication
// call into virtual compute time. Blocked time inside Recv is excluded
// by resetting the timer after the blocking call returns.
func (t *transport) chargeCompute() {
	t.computeMu.Lock()
	now := time.Now()
	elapsed := now.Sub(t.lastReal)
	t.lastReal = now
	t.computeMu.Unlock()
	if elapsed > 0 {
		t.f.advance(t.rank, time.Duration(float64(elapsed)*t.f.profile.ComputeScale))
	}
}

func (t *transport) resetComputeTimer() {
	t.computeMu.Lock()
	t.lastReal = time.Now()
	t.computeMu.Unlock()
}

const header = 8 // arrival timestamp, little-endian virtual nanoseconds

func (t *transport) Send(dst int, ctx uint64, tag int32, data []byte) error {
	t.chargeCompute()
	local := t.NodeOf(dst) == t.Node()
	sendCost, flight := t.f.params(local).cost(len(data))
	if t.f.mode == Sleep {
		time.Sleep(sendCost)
	}
	now := t.f.advance(t.rank, sendCost)
	arrival := now + flight

	buf := make([]byte, header+len(data))
	binary.LittleEndian.PutUint64(buf, uint64(arrival))
	copy(buf[header:], data)
	err := t.Transport.Send(dst, ctx, tag, buf)
	t.resetComputeTimer()
	return err
}

func (t *transport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	t.chargeCompute()
	buf, err := t.Transport.Recv(src, ctx, tag)
	if err != nil {
		t.resetComputeTimer()
		return nil, err
	}
	// The timer is reset only at the very end: neither the blocking
	// wait nor the modeled sleeps below may be re-charged as compute
	// by the next operation, or clocks would compound runaway.
	defer t.resetComputeTimer()
	if len(buf) < header {
		return nil, fmt.Errorf("simnet: frame shorter than cost header (%d bytes)", len(buf))
	}
	arrival := time.Duration(binary.LittleEndian.Uint64(buf))
	local := t.NodeOf(src) == t.Node()
	recvCost := t.f.params(local).Overhead
	if t.f.mode == Sleep {
		// Sleep until the modeled arrival of the data that has, in
		// real terms, already arrived: the remaining latency is the
		// modeled in-flight time beyond our current virtual clock.
		if lag := arrival - t.f.Clock(t.rank); lag > 0 {
			time.Sleep(lag)
		}
		time.Sleep(recvCost)
	}
	t.f.syncTo(t.rank, arrival)
	t.f.advance(t.rank, recvCost)
	return buf[header:], nil
}
