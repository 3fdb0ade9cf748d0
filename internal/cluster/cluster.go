// Package cluster launches in-process "clusters": p ranks as goroutines
// over a comm.World fabric, grouped into simulated nodes of c cores
// each. It is the stand-in for the MPI job launcher (aprun/srun) on the
// paper's Cray XC30 testbed.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"sdssort/internal/checkpoint"
	"sdssort/internal/comm"
	"sdssort/internal/memlimit"
	"sdssort/internal/trace"
)

// Topology describes the simulated machine shape.
type Topology struct {
	// Nodes is the number of simulated compute nodes.
	Nodes int
	// CoresPerNode is the number of ranks placed on each node. The
	// paper's Edison nodes have 24; laptop-scale runs typically use
	// 2-8.
	CoresPerNode int
}

// Size returns the total rank count.
func (t Topology) Size() int { return t.Nodes * t.CoresPerNode }

// Validate reports whether the topology is runnable.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: topology %d nodes × %d cores must be positive", t.Nodes, t.CoresPerNode)
	}
	return nil
}

// Options configures a launch beyond the topology.
type Options struct {
	// WrapTransport, when non-nil, decorates each rank's transport
	// before the communicator is built — used to layer the simnet
	// network-cost model under the algorithms.
	WrapTransport func(comm.Transport) comm.Transport
	// MaxRestarts bounds how many recovery epochs may start after the
	// initial attempt. 0 means fail on the first loss (Run semantics).
	MaxRestarts int
	// Trace, when non-nil, receives the supervisor.* events at rank -1
	// alongside whatever the job itself emits.
	Trace trace.Tracer
	// Mem, when non-nil, is the memory gauge the job reserves against
	// (typically the same one passed to core.Options.Mem). After a
	// fully successful epoch the launcher asserts it has drained back
	// to zero, turning a reservation leak into a loud failure instead
	// of an eventual spurious out-of-memory in a long-lived process.
	Mem *memlimit.Gauge
	// Shrink configures degraded-mode resume: instead of relaunching the
	// full world after a lost rank, keep the survivors and continue on a
	// world of size p−k.
	Shrink ShrinkPolicy
}

// tracer returns opts.Trace, or a no-op sink when unset.
func (o Options) tracer() trace.Tracer {
	if o.Trace == nil {
		return trace.Nop{}
	}
	return o.Trace
}

// ShrinkPolicy lets a supervisor heal a recoverable failure in place
// (see Decide) rather than relaunch at full size. Shrink epochs and
// relaunch epochs draw from the same MaxRestarts budget.
type ShrinkPolicy struct {
	// Enabled turns degraded-mode resume on.
	Enabled bool
	// MinRanks floors the shrunken world size; a failure that would
	// leave fewer survivors falls back to a full relaunch. Values below
	// 2 are treated as 2 — a 1-rank "world" is not a distributed sort.
	MinRanks int
	// Redistribute rebuilds the checkpoint cut for the surviving world:
	// checkpoint.RedistributeLatest with the job's codec and comparator
	// when one process sees the whole store, ReformAndAgree around it
	// when every survivor is its own process. lost holds the failed
	// world's ranks that died, oldSize that world's size, and newEpoch
	// the epoch the degraded attempt will run as (the new cut is
	// snapshotted under it). An error — a second loss tearing a
	// survivor's snapshot mid-redistribution lands here — or a PhaseNone
	// cut aborts the shrink; the relaunch path still sees the old cut,
	// because redistributed manifests carry the shrunken world size.
	Redistribute func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error)
}

// Run launches one goroutine per rank, each receiving the world
// communicator for an in-process fabric shaped like topo, and waits for
// all of them. If any rank returns an error the fabric is shut down so
// the remaining ranks unblock, and the per-rank errors are joined.
func Run(topo Topology, fn func(c *comm.Comm) error) error {
	return RunOpts(topo, Options{}, fn)
}

// RunOpts is Run with launch options.
func RunOpts(topo Topology, opts Options, fn func(c *comm.Comm) error) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	return launchSized(topo.Size(), topo.CoresPerNode, opts, "world", fn)
}

// PanicError is the typed rank failure a recovered panic becomes, so
// supervisors can treat a crashed rank like a lost one (errors.As).
type PanicError struct {
	Rank  int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("rank %d: panic: %v", e.Rank, e.Value)
}

// launchSized builds a fresh fabric of size ranks named name, runs one
// goroutine per rank and joins their errors. Each supervised epoch gets
// its own launch — fabric, transports and communicator are never reused
// across epochs. size need not be a multiple of the node width: a
// degraded world of p−k ranks keeps the original cores-per-node packing
// with a partially filled last node.
func launchSized(size, coresPerNode int, opts Options, name string, fn func(c *comm.Comm) error) error {
	world, err := comm.NewWorld(size, comm.BlockNodes(size, coresPerNode))
	if err != nil {
		return err
	}
	defer world.Close()

	errs := make([]error, size)
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			// A panicking rank must not take the whole process down:
			// convert it to a rank error and unblock the peers, the
			// way an MPI job launcher reports a crashed rank.
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = &PanicError{Rank: rank, Value: p}
					once.Do(func() { world.Close() })
				}
			}()
			tr := comm.Transport(world.Transport(rank))
			if opts.WrapTransport != nil {
				tr = opts.WrapTransport(tr)
			}
			c := comm.NewNamed(tr, name)
			if err := fn(c); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				// Tear the fabric down so ranks blocked in
				// collectives with this one fail fast instead
				// of deadlocking the launch.
				once.Do(func() { world.Close() })
			}
		}(r)
	}
	wg.Wait()

	var nonNil []error
	for _, e := range errs {
		if e != nil {
			nonNil = append(nonNil, e)
		}
	}
	if len(nonNil) == 0 && opts.Mem != nil {
		if used := opts.Mem.Used(); used != 0 {
			return fmt.Errorf("cluster: memory gauge holds %d bytes after a successful run (reservation leak)", used)
		}
	}
	return errors.Join(nonNil...)
}

// Epoch identifies one supervised attempt. N is 0 for the initial run
// and increments on every recovery epoch — full relaunch or degraded
// resume alike; the job function typically feeds it to the checkpoint
// layer so each attempt snapshots under its own epoch number.
type Epoch struct {
	N int
	// Degraded marks an attempt running on a shrunken world: the
	// communicator spans only the previous world's survivors,
	// renumbered 0..size-1, and the job must resume from Resume rather
	// than agreeing on a cut itself (the full-size cuts in the store do
	// not match this world).
	Degraded bool
	// Resume is the redistributed cut a degraded attempt restarts from;
	// zero for full-world attempts.
	Resume checkpoint.Cut
	// Lost holds the previous world's comm ranks that died, for
	// logging; empty for full-world attempts.
	Lost []int
}

// RunSupervised launches fn like RunOpts and, when the attempt dies of
// a recoverable failure (comm.ErrPeerLost or a rank panic), follows
// Decide's plan: a degraded epoch on the survivors (opts.Shrink), a
// relaunch of the full-size world, or — budget spent — the last error
// wrapped in a budget message. Each epoch's world has a distinct
// communicator name (WorldName), so frames from a dead epoch can never
// be delivered into a live one. A non-recoverable error is returned
// as-is immediately.
//
// fn is re-invoked from the top each epoch; resuming mid-sort instead
// of recomputing is the job's business (core.Options.Checkpoint).
func RunSupervised(topo Topology, opts Options, fn func(ep Epoch, c *comm.Comm) error) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	tr := opts.tracer()
	size := topo.Size()
	var cur Epoch
	for {
		name := WorldName(cur.N, cur.Degraded, size)
		// One span per supervised epoch, at rank -1: the timeline shows
		// each attempt as a slice on the control row, annotated with the
		// world it ran and how it ended (ok / shrink / restart / giveup).
		esp := trace.StartSpan(tr, -1, trace.Scope{Trace: name}, "epoch", map[string]any{
			"epoch": cur.N, "world": size, "degraded": cur.Degraded,
		})
		err := launchSized(size, topo.CoresPerNode, opts, name, func(c *comm.Comm) error {
			return fn(cur, c)
		})
		if err == nil {
			esp.End(map[string]any{"outcome": "ok"})
			return nil
		}
		// Only a lost peer or a rank panic is worth a restart: a
		// deterministic failure — bad input, a codec mismatch, a local I/O
		// error — would just repeat. The span counts both verdicts.
		peers, panics := blame(err)
		esp.End(map[string]any{
			"outcome": "error", "error": err.Error(),
			"peers_lost": len(peers), "panics": len(panics),
		})
		if len(peers)+len(panics) == 0 {
			return err
		}
		// In-process the joined error carries every rank's verdict, so
		// the liveness oracle is read off it (Failure.Alive nil).
		plan := Decide(Failure{Err: err, Epoch: cur.N, Size: size}, opts)
		switch plan.Action {
		case GiveUp:
			return plan.Err
		case Resume:
			size = len(plan.Survivors)
		case Relaunch:
			size = topo.Size()
		}
		cur = plan.Epoch
	}
}

// flatten splits an errors.Join result into its members (or wraps a
// plain error in a singleton slice).
func flatten(err error) []error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// Gather runs fn on a cluster and collects each rank's result value,
// indexed by rank. It fails like RunOpts does.
func Gather[T any](topo Topology, opts Options, fn func(c *comm.Comm) (T, error)) ([]T, error) {
	out := make([]T, topo.Size())
	err := RunOpts(topo, opts, func(c *comm.Comm) error {
		v, err := fn(c)
		if err != nil {
			return err
		}
		out[c.Rank()] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
