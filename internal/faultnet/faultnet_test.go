package faultnet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/simnet"
	"sdssort/internal/workload"
)

// seedFromEnv lets the CI soak lane run the same tests under several
// fault schedules (FAULTNET_SEED=n go test ...).
func seedFromEnv(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("FAULTNET_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad FAULTNET_SEED %q: %v", s, err)
	}
	t.Logf("fault schedule seed %d", v)
	return v
}

// within runs fn with a deadline so an injected fault that would
// deadlock the fabric fails the test instead of hanging the suite.
func within(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("still running after %v — the fabric deadlocked", d)
		return nil
	}
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func mustNew(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// ringExchange is a deterministic per-rank workload: n tagged messages
// around a ring, values checked for integrity and order.
func ringExchange(n int) func(c *comm.Comm) error {
	return func(c *comm.Comm) error {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		for i := 0; i < n; i++ {
			if err := c.Send(next, 3, []byte{byte(i), byte(i >> 8)}); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			data, err := c.Recv(prev, 3)
			if err != nil {
				return err
			}
			if got := int(data[0]) | int(data[1])<<8; got != i {
				return fmt.Errorf("rank %d: message %d arrived as %d", c.Rank(), i, got)
			}
		}
		return nil
	}
}

func TestFaultPlanValidation(t *testing.T) {
	if _, err := New(Plan{SendFailRate: 1.5}); err == nil {
		t.Fatal("rate above 1 accepted")
	}
	if _, err := New(Plan{DupRate: -0.1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	in := mustNew(t, Plan{})
	if in.Plan().Seed != 1 || in.Plan().StallEvery != 64 {
		t.Fatalf("defaults not applied: %+v", in.Plan())
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	seed := seedFromEnv(t)
	plan := Plan{Seed: seed, SendFailRate: 0.2, RecvFailRate: 0.1, MaxConsecutive: 2, DupRate: 0.1, DelayRate: 0.1, MaxDelay: 100 * time.Microsecond}
	policy := comm.RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Seed: seed}
	run := func() Stats {
		in := mustNew(t, plan)
		err := within(t, 30*time.Second, func() error {
			return cluster.RunOpts(cluster.Topology{Nodes: 2, CoresPerNode: 1},
				cluster.Options{WrapTransport: in.WrapTransport(policy)}, ringExchange(200))
		})
		if err != nil {
			t.Fatalf("ring exchange under faults failed: %v", err)
		}
		return in.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different fault schedules:\n  %+v\n  %+v", a, b)
	}
	if a.SendFailures == 0 && a.RecvFailures == 0 {
		t.Fatalf("plan injected nothing: %+v", a)
	}
}

func TestFaultDuplicateDeliveryDeduped(t *testing.T) {
	in := mustNew(t, Plan{Seed: seedFromEnv(t), DupRate: 1})
	err := within(t, 30*time.Second, func() error {
		return cluster.RunOpts(cluster.Topology{Nodes: 1, CoresPerNode: 3},
			cluster.Options{WrapTransport: func(tr comm.Transport) comm.Transport { return in.Wrap(tr) }},
			ringExchange(150))
	})
	if err != nil {
		t.Fatalf("duplicated delivery leaked through dedup: %v", err)
	}
	if st := in.Stats(); st.Duplicates == 0 {
		t.Fatalf("no duplicates injected: %+v", st)
	}
}

func TestFaultStallAndDelay(t *testing.T) {
	in := mustNew(t, Plan{Seed: 1, DelayRate: 1, MaxDelay: 200 * time.Microsecond, StallRank: 0, StallFor: 200 * time.Microsecond, StallEvery: 2})
	err := within(t, 30*time.Second, func() error {
		return cluster.RunOpts(cluster.Topology{Nodes: 1, CoresPerNode: 2},
			cluster.Options{WrapTransport: func(tr comm.Transport) comm.Transport { return in.Wrap(tr) }},
			ringExchange(20))
	})
	if err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.Delays == 0 || st.Stalls == 0 {
		t.Fatalf("expected delays and stalls: %+v", st)
	}
}

// TestFaultRetryClusterSortCompletesUnderBudget is the acceptance
// scenario: a full SDS-Sort over a fabric injecting send/recv
// failures, connection drops, delays, duplicates and a straggler —
// all below the retry budget (MaxConsecutive < MaxAttempts) — must
// produce a correctly sorted global output.
func TestFaultRetryClusterSortCompletesUnderBudget(t *testing.T) {
	seed := seedFromEnv(t)
	in := mustNew(t, Plan{
		Seed:         seed,
		SendFailRate: 0.15, ConnDropRate: 0.05, RecvFailRate: 0.10,
		MaxConsecutive: 2,
		DelayRate:      0.05, MaxDelay: 500 * time.Microsecond,
		DupRate:   0.05,
		StallRank: 1, StallFor: time.Millisecond, StallEvery: 100,
	})
	policy := comm.RetryPolicy{MaxAttempts: 6, BaseDelay: 200 * time.Microsecond, MaxDelay: 5 * time.Millisecond, Seed: seed}

	const p, perRank = 4, 300
	var mu sync.Mutex
	outputs := make([][]float64, p)
	err := within(t, 60*time.Second, func() error {
		return cluster.RunOpts(cluster.Topology{Nodes: 2, CoresPerNode: 2},
			cluster.Options{WrapTransport: in.WrapTransport(policy)},
			func(c *comm.Comm) error {
				data := workload.ZipfKeys(seed+int64(c.Rank()), perRank, 1.4, 500)
				out, err := core.Sort(c, data, codec.Float64{}, cmpF, core.DefaultOptions())
				if err != nil {
					return err
				}
				mu.Lock()
				outputs[c.Rank()] = out
				mu.Unlock()
				return nil
			})
	})
	if err != nil {
		t.Fatalf("sort under injected faults failed: %v\nstats: %+v", err, in.Stats())
	}
	var flat []float64
	for _, part := range outputs {
		flat = append(flat, part...)
	}
	if len(flat) != p*perRank {
		t.Fatalf("record count %d, want %d", len(flat), p*perRank)
	}
	if !slices.IsSorted(flat) {
		t.Fatal("output not globally sorted under fault injection")
	}
	st := in.Stats()
	if st.SendFailures+st.ConnDrops+st.RecvFailures == 0 {
		t.Fatalf("the run was never actually faulted: %+v", st)
	}
	t.Logf("survived %+v", st)
}

// TestFaultClusterPeerLostAboveBudget is the other half of the
// acceptance criterion: with the failure rate above the retry budget
// (every send fails, uncapped), cluster.Run must return
// comm.ErrPeerLost promptly instead of deadlocking.
func TestFaultClusterPeerLostAboveBudget(t *testing.T) {
	in := mustNew(t, Plan{Seed: seedFromEnv(t), SendFailRate: 1})
	policy := comm.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	err := within(t, 30*time.Second, func() error {
		return cluster.RunOpts(cluster.Topology{Nodes: 2, CoresPerNode: 2},
			cluster.Options{WrapTransport: in.WrapTransport(policy)},
			func(c *comm.Comm) error {
				data := workload.Uniform(int64(c.Rank()+1), 100)
				_, err := core.Sort(c, data, codec.Float64{}, cmpF, core.DefaultOptions())
				return err
			})
	})
	if err == nil {
		t.Fatal("sort succeeded with every send failing")
	}
	if _, ok := comm.PeerLost(err); !ok {
		t.Fatalf("want comm.ErrPeerLost in the joined error, got: %v", err)
	}
	t.Logf("degraded: %v", err)
}

// TestFaultKillRankOnceThenClean exercises the kill-rank fault: the
// victim's ops fail permanently with comm.ErrPeerLost naming itself,
// the whole world unblocks, and — because the kill latch is per
// Injector — re-wrapping fresh transports (what a supervisor does for
// a recovery epoch) runs clean.
func TestFaultKillRankOnceThenClean(t *testing.T) {
	in := mustNew(t, Plan{Seed: seedFromEnv(t), KillRank: 1, KillAfterOps: 5})
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	opts := cluster.Options{WrapTransport: func(tr comm.Transport) comm.Transport { return in.Wrap(tr) }}

	err := within(t, 30*time.Second, func() error {
		return cluster.RunOpts(topo, opts, ringExchange(50))
	})
	if err == nil {
		t.Fatal("ring exchange survived a killed rank")
	}
	if rank, ok := comm.PeerLost(err); !ok || rank != 1 {
		t.Fatalf("want ErrPeerLost naming rank 1, got: %v", err)
	}
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("want ErrKilled in the chain, got: %v", err)
	}
	if st := in.Stats(); st.Kills != 1 {
		t.Fatalf("kill fired %d times, want 1: %+v", st.Kills, st)
	}

	// Recovery epoch: same injector, fresh wraps — the kill is spent.
	if err := within(t, 30*time.Second, func() error {
		return cluster.RunOpts(topo, opts, ringExchange(50))
	}); err != nil {
		t.Fatalf("retry epoch after the kill was not clean: %v", err)
	}
	if st := in.Stats(); st.Kills != 1 {
		t.Fatalf("kill re-fired on the retry epoch: %+v", st)
	}
}

// TestFaultKillAfterFile pins the kill to a filesystem trigger: no kill
// while the file is absent, kill on the first operation after it
// exists. The checkpoint recovery tests point this at a manifest path
// to kill a rank exactly at a phase boundary.
func TestFaultKillAfterFile(t *testing.T) {
	trigger := filepath.Join(t.TempDir(), "boundary.ckpt")
	in := mustNew(t, Plan{Seed: seedFromEnv(t), KillRank: 0, KillAfterFile: trigger})
	topo := cluster.Topology{Nodes: 1, CoresPerNode: 2}
	opts := cluster.Options{WrapTransport: func(tr comm.Transport) comm.Transport { return in.Wrap(tr) }}

	if err := within(t, 30*time.Second, func() error {
		return cluster.RunOpts(topo, opts, ringExchange(20))
	}); err != nil {
		t.Fatalf("killed before the trigger file existed: %v", err)
	}
	if err := os.WriteFile(trigger, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := within(t, 30*time.Second, func() error {
		return cluster.RunOpts(topo, opts, ringExchange(20))
	})
	if rank, ok := comm.PeerLost(err); !ok || rank != 0 {
		t.Fatalf("want ErrPeerLost naming rank 0 after trigger, got: %v", err)
	}
	if st := in.Stats(); st.Kills != 1 {
		t.Fatalf("kills %d, want 1", st.Kills)
	}
}

// TestFaultComposesWithSimnet layers the injector over the cost model
// the way the docs describe: retry(faults(costmodel(transport))).
func TestFaultComposesWithSimnet(t *testing.T) {
	seed := seedFromEnv(t)
	in := mustNew(t, Plan{Seed: seed, SendFailRate: 0.1, MaxConsecutive: 1})
	policy := comm.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, Seed: seed}
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	fabric := simnet.NewFabric(simnet.Aries(), simnet.Virtual, topo.Size())
	wrap := func(tr comm.Transport) comm.Transport {
		return comm.WithRetry(in.Wrap(fabric.Wrap(tr)), policy)
	}
	outputs := make([][]float64, topo.Size())
	var mu sync.Mutex
	err := within(t, 60*time.Second, func() error {
		return cluster.RunOpts(topo, cluster.Options{WrapTransport: wrap}, func(c *comm.Comm) error {
			data := workload.Uniform(seed+int64(c.Rank())*31, 200)
			out, err := core.Sort(c, data, codec.Float64{}, cmpF, core.DefaultOptions())
			if err != nil {
				return err
			}
			mu.Lock()
			outputs[c.Rank()] = out
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatalf("sort over simnet+faultnet failed: %v", err)
	}
	var flat []float64
	for _, part := range outputs {
		flat = append(flat, part...)
	}
	if !slices.IsSorted(flat) {
		t.Fatal("not sorted")
	}
	if fabric.Makespan() <= 0 {
		t.Fatal("cost model saw no traffic — wrap order broken")
	}
}
