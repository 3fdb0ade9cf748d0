// Package faultnet injects deterministic, seeded network faults under
// the comm runtime. It mirrors how simnet layers a cost model below the
// algorithms: an Injector's Wrap decorates each rank's transport
// through cluster.Options.WrapTransport, and every wrapped operation
// may — per a seeded per-rank RNG — fail transiently, stall, arrive
// late, or arrive twice. Sorting code above the decorator is unchanged;
// the point is to exercise the retry/backoff and typed-error paths
// (comm.WithRetry, comm.ErrPeerLost) that a real network would.
//
// Fault classes:
//
//   - Connection drops and send failures: Send returns an error marked
//     comm.Transient *before* the underlying Send runs, so a retry is
//     always safe (nothing was delivered).
//   - Recv failures: Recv fails transiently before blocking on the
//     underlying transport; the message stays queued for the retry.
//   - Delayed delivery: Send sleeps up to MaxDelay first.
//   - Duplicated delivery: the frame is sent twice. Every wrapped
//     payload carries an 8-byte sequence number per (peer, ctx, tag)
//     stream and the receiving decorator drops already-seen sequence
//     numbers, so duplication is exercised on the wire yet invisible
//     above — the same dedup contract tcpcomm implements for real
//     retransmissions.
//   - Rank stalls: one rank sleeps on every Nth transport operation,
//     simulating a straggler.
//
// Because payloads are reframed, Wrap must be applied uniformly: every
// rank of the world wraps, or none (the cluster launcher's hook does
// this naturally). Composition with simnet puts faultnet closest to
// the algorithms: comm.WithRetry(inj.Wrap(fabric.Wrap(tr)), policy) —
// so injected failures never charge phantom cost-model time.
package faultnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sdssort/internal/comm"
)

// Plan declares what to inject. Rates are probabilities in [0,1] drawn
// independently per operation from a per-rank RNG seeded by Seed, so a
// given (plan, world size) produces the same fault schedule every run.
type Plan struct {
	// Seed drives every per-rank RNG (default 1).
	Seed int64
	// SendFailRate is the probability a Send fails with a transient
	// error before anything is delivered.
	SendFailRate float64
	// ConnDropRate is like SendFailRate but reported as a dropped
	// connection — the error text a reconnect layer would see.
	ConnDropRate float64
	// RecvFailRate is the probability a Recv fails transiently before
	// blocking.
	RecvFailRate float64
	// MaxConsecutive caps back-to-back injected failures on one
	// (rank, peer) direction; after that many in a row the next
	// operation passes through. Setting it below the retry budget's
	// MaxAttempts guarantees every operation eventually succeeds —
	// the "failure rate ≤ retry budget" regime. 0 means uncapped
	// (with SendFailRate 1 this starves the budget deterministically).
	MaxConsecutive int
	// DelayRate is the probability a Send is delayed by a uniform
	// duration in (0, MaxDelay].
	DelayRate float64
	// MaxDelay bounds injected delays (default 1ms when DelayRate>0).
	MaxDelay time.Duration
	// DupRate is the probability a frame is delivered twice.
	DupRate float64
	// StallRank and StallFor make one rank sleep StallFor on every
	// StallEvery-th transport operation (disabled while StallFor<=0).
	StallRank  int
	StallFor   time.Duration
	StallEvery int // default 64
	// KillRank terminates one world rank mid-run: once the trigger below
	// fires, every transport operation on that rank fails permanently
	// with comm.ErrPeerLost wrapping ErrKilled — the rank is dead as far
	// as the fabric is concerned, and its peers see it as lost. The kill
	// fires at most once per Injector, so a supervisor that re-wraps
	// fresh transports for a recovery epoch runs the retry clean.
	// Triggers (at least one must be set; both unset disables the kill):
	//
	//   - KillAfterOps: the kill fires on the KillRank's n-th transport
	//     operation, a deterministic mid-phase point.
	//   - KillAfterFile: the kill fires on the first operation after the
	//     named file exists. Pointing it at a checkpoint Store's
	//     ManifestPath pins the kill to a phase boundary.
	KillRank      int
	KillAfterOps  int64
	KillAfterFile string
	// KillHard escalates the kill from a dead transport to a dead
	// process: when the kill fires, the process exits immediately with
	// status 137, the SIGKILL convention — the fault shape multi-process
	// end-to-end tests need. In-process tests leave it false so the
	// "killed" rank surfaces as an error instead of taking the test
	// binary down with it.
	KillHard bool
	// Ranks limits fault injection to these world ranks (nil = all).
	// Wrapping itself must still cover every rank so the sequence
	// framing matches.
	Ranks []int
}

func (p Plan) withDefaults() Plan {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Millisecond
	}
	if p.StallEvery <= 0 {
		p.StallEvery = 64
	}
	return p
}

func (p Plan) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"SendFailRate", p.SendFailRate},
		{"ConnDropRate", p.ConnDropRate},
		{"RecvFailRate", p.RecvFailRate},
		{"DelayRate", p.DelayRate},
		{"DupRate", p.DupRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faultnet: %s %v outside [0,1]", r.name, r.v)
		}
	}
	return nil
}

// Stats counts the faults an Injector has inflicted across all ranks.
type Stats struct {
	SendFailures int64
	ConnDrops    int64
	RecvFailures int64
	Delays       int64
	Duplicates   int64
	Stalls       int64
	Kills        int64
}

// ErrKilled marks the permanent failure a killed rank's own transport
// operations return (wrapped in comm.ErrPeerLost naming that rank).
var ErrKilled = errors.New("faultnet: rank killed")

// Injector owns one fault plan and wraps any number of rank transports
// with it.
type Injector struct {
	plan Plan

	sendFail, connDrops, recvFail atomic.Int64
	delays, dups, stalls, kills   atomic.Int64

	killOps   atomic.Int64 // transport ops seen on the kill rank
	killFired atomic.Bool  // the one-shot latch: sticky across re-wraps
}

// New validates the plan and builds an injector.
func New(plan Plan) (*Injector, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan.withDefaults()}, nil
}

// Plan returns the effective (default-filled) plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		SendFailures: in.sendFail.Load(),
		ConnDrops:    in.connDrops.Load(),
		RecvFailures: in.recvFail.Load(),
		Delays:       in.delays.Load(),
		Duplicates:   in.dups.Load(),
		Stalls:       in.stalls.Load(),
		Kills:        in.kills.Load(),
	}
}

// Wrap decorates one rank's transport with the fault plan. Apply it to
// every rank of the world (cluster.Options.WrapTransport does).
func (in *Injector) Wrap(tr comm.Transport) comm.Transport {
	rank := tr.Rank()
	return &transport{
		Transport: tr,
		in:        in,
		rank:      rank,
		active:    in.applies(rank),
		rng:       rand.New(rand.NewPCG(uint64(in.plan.Seed), uint64(rank)+0x9e3779b97f4a7c15)),
		consec:    make(map[streamDir]int),
		sendSeq:   make(map[streamKey]uint64),
		recvSeq:   make(map[streamKey]uint64),
		streams:   make(map[streamKey]*sync.Mutex),
	}
}

// WrapTransport returns a cluster.Options-compatible hook that layers
// the injector under a comm.WithRetry decorator — the composition the
// robustness tests run: faults below, retry budget above.
func (in *Injector) WrapTransport(p comm.RetryPolicy) func(comm.Transport) comm.Transport {
	return func(tr comm.Transport) comm.Transport {
		return comm.WithRetry(in.Wrap(tr), p)
	}
}

func (in *Injector) applies(rank int) bool {
	if in.plan.Ranks == nil {
		return true
	}
	for _, r := range in.plan.Ranks {
		if r == rank {
			return true
		}
	}
	return false
}

// streamKey identifies one directional message stream; sequence
// numbers are assigned and checked per stream because FIFO delivery is
// only guaranteed per (src, dst, ctx, tag).
type streamKey struct {
	peer int
	ctx  uint64
	tag  int32
}

type streamDir struct {
	peer int
	recv bool
}

const seqHeader = 8

type transport struct {
	comm.Transport
	in     *Injector
	rank   int
	active bool
	dead   atomic.Bool // this wrap's rank was killed; per-epoch, unlike killFired

	mu      sync.Mutex
	rng     *rand.Rand
	ops     int64
	consec  map[streamDir]int // consecutive injected failures per direction
	sendSeq map[streamKey]uint64
	recvSeq map[streamKey]uint64
	streams map[streamKey]*sync.Mutex
}

// draw must be called with t.mu held.
func (t *transport) draw(rate float64) bool {
	return rate > 0 && t.rng.Float64() < rate
}

// allowFail reports (with t.mu held) whether another failure may be
// injected on dir without exceeding MaxConsecutive.
func (t *transport) allowFail(dir streamDir) bool {
	max := t.in.plan.MaxConsecutive
	return max <= 0 || t.consec[dir] < max
}

func (t *transport) streamLock(k streamKey) *sync.Mutex {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.streams[k]
	if !ok {
		m = &sync.Mutex{}
		t.streams[k] = m
	}
	return m
}

// maybeKill fires the plan's one-shot kill-rank fault. The killFired
// latch is on the Injector, so a fresh wrap for a recovery epoch never
// re-kills; the dead flag is on the wrap, so within its epoch the rank
// stays dead for every subsequent operation. The error is permanent
// (not Transient): comm.WithRetry gives up on it immediately, and it
// surfaces as comm.ErrPeerLost naming this rank.
func (t *transport) maybeKill() error {
	p := t.in.plan
	if p.KillAfterOps <= 0 && p.KillAfterFile == "" {
		return nil
	}
	if t.rank != p.KillRank {
		return nil
	}
	if !t.dead.Load() {
		if t.in.killFired.Load() {
			return nil // kill already spent in an earlier epoch
		}
		fire := false
		if p.KillAfterOps > 0 && t.in.killOps.Add(1) == p.KillAfterOps {
			fire = true
		}
		if !fire && p.KillAfterFile != "" {
			if _, err := os.Stat(p.KillAfterFile); err == nil {
				fire = true
			}
		}
		if !fire {
			return nil
		}
		if t.in.killFired.CompareAndSwap(false, true) {
			t.in.kills.Add(1)
		}
		t.dead.Store(true)
		if p.KillHard {
			os.Exit(137)
		}
	}
	return &comm.ErrPeerLost{
		Rank: t.rank,
		Err:  fmt.Errorf("%w: rank %d terminated mid-run", ErrKilled, t.rank),
	}
}

// maybeStall sleeps if this rank is the plan's straggler and this is a
// stall-eligible operation.
func (t *transport) maybeStall() {
	p := t.in.plan
	if !t.active || p.StallFor <= 0 || t.rank != p.StallRank {
		return
	}
	t.mu.Lock()
	t.ops++
	hit := t.ops%int64(p.StallEvery) == 0
	t.mu.Unlock()
	if hit {
		t.in.stalls.Add(1)
		time.Sleep(p.StallFor)
	}
}

func (t *transport) Send(dst int, ctx uint64, tag int32, data []byte) error {
	if err := t.maybeKill(); err != nil {
		return err
	}
	t.maybeStall()
	p := t.in.plan
	dir := streamDir{peer: dst}
	key := streamKey{peer: dst, ctx: ctx, tag: tag}

	t.mu.Lock()
	if t.active && t.allowFail(dir) {
		if t.draw(p.ConnDropRate) {
			t.consec[dir]++
			t.mu.Unlock()
			t.in.connDrops.Add(1)
			return comm.Transient(fmt.Errorf("faultnet: connection to rank %d dropped", dst))
		}
		if t.draw(p.SendFailRate) {
			t.consec[dir]++
			t.mu.Unlock()
			t.in.sendFail.Add(1)
			return comm.Transient(fmt.Errorf("faultnet: send to rank %d failed", dst))
		}
	}
	t.consec[dir] = 0
	var delay time.Duration
	if t.active && t.draw(p.DelayRate) {
		delay = time.Duration(1 + t.rng.Int64N(int64(p.MaxDelay)))
	}
	dup := t.active && t.draw(p.DupRate)
	t.mu.Unlock()

	// The stream lock spans sequence assignment, the injected delay and
	// the underlying sends, so sequence numbers reach the wire in
	// order even when several goroutines of a rank send at once.
	sl := t.streamLock(key)
	sl.Lock()
	defer sl.Unlock()
	t.mu.Lock()
	seq := t.sendSeq[key]
	t.sendSeq[key] = seq + 1
	t.mu.Unlock()

	if delay > 0 {
		t.in.delays.Add(1)
		time.Sleep(delay)
	}
	buf := make([]byte, seqHeader+len(data))
	binary.LittleEndian.PutUint64(buf, seq)
	copy(buf[seqHeader:], data)
	if err := t.Transport.Send(dst, ctx, tag, buf); err != nil {
		return err
	}
	if dup {
		t.in.dups.Add(1)
		if err := t.Transport.Send(dst, ctx, tag, buf); err != nil {
			return err
		}
	}
	return nil
}

func (t *transport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	if err := t.maybeKill(); err != nil {
		return nil, err
	}
	t.maybeStall()
	dir := streamDir{peer: src, recv: true}
	key := streamKey{peer: src, ctx: ctx, tag: tag}

	t.mu.Lock()
	if t.active && t.allowFail(dir) && t.draw(t.in.plan.RecvFailRate) {
		t.consec[dir]++
		t.mu.Unlock()
		t.in.recvFail.Add(1)
		return nil, comm.Transient(fmt.Errorf("faultnet: receive from rank %d failed", src))
	}
	t.consec[dir] = 0
	t.mu.Unlock()

	for {
		buf, err := t.Transport.Recv(src, ctx, tag)
		if err != nil {
			return nil, err
		}
		if len(buf) < seqHeader {
			return nil, fmt.Errorf("faultnet: frame from rank %d shorter than sequence header", src)
		}
		seq := binary.LittleEndian.Uint64(buf)
		t.mu.Lock()
		expected := t.recvSeq[key]
		if seq < expected {
			t.mu.Unlock()
			continue // duplicate delivery: drop and take the next frame
		}
		t.recvSeq[key] = seq + 1
		t.mu.Unlock()
		return buf[seqHeader:], nil
	}
}
