// Package memlimit emulates the per-node memory budgets of a distributed
// machine. The paper's evaluation shows HykSort dying of out-of-memory
// errors when skewed data concentrates on one rank; rather than crashing
// the host process we account allocations against a per-rank budget and
// surface ErrOutOfMemory deterministically.
package memlimit

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrOutOfMemory is returned when a reservation would exceed the budget.
// It models the allocation failure / OOM kill a real rank would suffer.
var ErrOutOfMemory = errors.New("memlimit: out of memory")

// Gauge tracks reserved bytes against a fixed budget. A zero or negative
// budget means unlimited. Gauge is safe for concurrent use.
type Gauge struct {
	budget int64
	used   atomic.Int64
	peak   atomic.Int64
}

// New returns a gauge with the given budget in bytes. budget <= 0 means
// unlimited.
func New(budget int64) *Gauge {
	return &Gauge{budget: budget}
}

// Budget returns the configured budget (0 when unlimited).
func (g *Gauge) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// Reserve accounts n bytes. It fails with a wrapped ErrOutOfMemory when
// the reservation would exceed the budget, leaving usage unchanged.
// A nil gauge accepts everything, so callers can pass nil for "no limit".
func (g *Gauge) Reserve(n int64) error {
	if g == nil || g.budget <= 0 {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("memlimit: negative reservation %d", n)
	}
	for {
		cur := g.used.Load()
		next := cur + n
		if next > g.budget {
			return fmt.Errorf("%w: need %d bytes, %d of %d in use",
				ErrOutOfMemory, n, cur, g.budget)
		}
		if g.used.CompareAndSwap(cur, next) {
			g.bumpPeak(next)
			return nil
		}
	}
}

// Release returns n bytes to the budget. Releasing more than is in use
// clamps usage at zero rather than going negative.
func (g *Gauge) Release(n int64) {
	if g == nil || g.budget <= 0 || n <= 0 {
		return
	}
	for {
		cur := g.used.Load()
		next := cur - n
		if next < 0 {
			next = 0
		}
		if g.used.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Used returns the bytes currently reserved.
func (g *Gauge) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Peak returns the high-water mark of reservations.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

func (g *Gauge) bumpPeak(v int64) {
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// FairShareBudget computes the budget used throughout the experiments:
// multiple× the fair per-rank share of the total dataset. The paper's
// Edison nodes hold 64 GB against 400 MB/process weak-scaling loads; a
// small multiple of the fair share reproduces the same "balanced runs
// fit, collapsed runs die" behaviour at laptop scale.
func FairShareBudget(totalBytes int64, ranks int, multiple float64) int64 {
	if ranks <= 0 || multiple <= 0 {
		return 0
	}
	return int64(float64(totalBytes) / float64(ranks) * multiple)
}
