package simnet

import (
	"fmt"
	"testing"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/comm"
)

// testProfile has exaggerated, easily-checkable constants and no
// compute charging noise sensitivity.
func testProfile() Profile {
	return Profile{
		Name:         "test",
		Remote:       Params{Overhead: time.Millisecond, Latency: 10 * time.Millisecond, Bandwidth: 1 << 20},
		Local:        Params{Overhead: 100 * time.Microsecond, Latency: time.Millisecond, Bandwidth: 16 << 20},
		ComputeScale: 0, // normalised to 1 by NewFabric... set explicitly below
	}
}

func TestVirtualClockAdvancesOnSend(t *testing.T) {
	prof := testProfile()
	prof.ComputeScale = 1e-9 // effectively ignore real compute time
	fab := NewFabric(prof, Virtual, 2)
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	err := cluster.RunOpts(topo, cluster.Options{WrapTransport: fab.Wrap}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 1<<20)) // 1 MiB at 1 MiB/s ≈ 1 s
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: overhead + serialisation ≈ 1.001 s.
	if got := fab.Clock(0); got < 900*time.Millisecond || got > 1200*time.Millisecond {
		t.Fatalf("sender clock %v", got)
	}
	// Receiver: arrival (≈1.011 s) + recv overhead.
	if got := fab.Clock(1); got < fab.Clock(0)+prof.Remote.Latency/2 {
		t.Fatalf("receiver clock %v not past sender %v + latency", got, fab.Clock(0))
	}
	if fab.Makespan() != fab.Clock(1) {
		t.Fatal("makespan should be the receiver's clock")
	}
}

func TestLocalTrafficCheaper(t *testing.T) {
	prof := testProfile()
	prof.ComputeScale = 1e-9
	run := func(sameNode bool) time.Duration {
		topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
		if sameNode {
			topo = cluster.Topology{Nodes: 1, CoresPerNode: 2}
		}
		fab := NewFabric(prof, Virtual, 2)
		err := cluster.RunOpts(topo, cluster.Options{WrapTransport: fab.Wrap}, func(c *comm.Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, make([]byte, 64<<10))
			}
			_, err := c.Recv(0, 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return fab.Makespan()
	}
	local := run(true)
	remote := run(false)
	if local >= remote {
		t.Fatalf("local message (%v) not cheaper than remote (%v)", local, remote)
	}
}

func TestPerMessageCostDominatesSmallMessages(t *testing.T) {
	// The τm rationale: many small messages cost more than few big
	// ones of the same total volume.
	prof := testProfile()
	prof.ComputeScale = 1e-9
	const totalBytes = 64 << 10
	run := func(messages int) time.Duration {
		fab := NewFabric(prof, Virtual, 2)
		topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
		err := cluster.RunOpts(topo, cluster.Options{WrapTransport: fab.Wrap}, func(c *comm.Comm) error {
			per := totalBytes / messages
			if c.Rank() == 0 {
				for i := 0; i < messages; i++ {
					if err := c.Send(1, 0, make([]byte, per)); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < messages; i++ {
				if _, err := c.Recv(0, 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fab.Makespan()
	}
	many := run(64)
	few := run(1)
	if many <= few {
		t.Fatalf("64 small messages (%v) should cost more than 1 large (%v)", many, few)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	prof := testProfile()
	prof.ComputeScale = 1e-9
	fab := NewFabric(prof, Virtual, 4)
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 1}
	err := cluster.RunOpts(topo, cluster.Options{WrapTransport: fab.Wrap}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			// Rank 0 does heavy "communication work" first.
			for i := 0; i < 20; i++ {
				if err := c.Send(0+1, 5, make([]byte, 32<<10)); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 1 {
			for i := 0; i < 20; i++ {
				if _, err := c.Recv(0, 5); err != nil {
					return err
				}
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// After a barrier every clock is at least the max pre-barrier
	// clock (ranks 2,3 were idle but must be dragged forward).
	ref := fab.Clock(1)
	for r := 0; r < 4; r++ {
		if fab.Clock(r) < ref/2 {
			t.Fatalf("rank %d clock %v far below synchronised %v", r, fab.Clock(r), ref)
		}
	}
}

func TestResetZeroesClocks(t *testing.T) {
	fab := NewFabric(Aries(), Virtual, 2)
	fab.advance(0, time.Second)
	fab.Reset()
	if fab.Makespan() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSleepModeTakesRealTime(t *testing.T) {
	prof := Profile{
		Name:         "sleepy",
		Remote:       Params{Overhead: 5 * time.Millisecond, Latency: 20 * time.Millisecond, Bandwidth: 1 << 30},
		Local:        Params{Overhead: 5 * time.Millisecond, Latency: 20 * time.Millisecond, Bandwidth: 1 << 30},
		ComputeScale: 1,
	}
	fab := NewFabric(prof, Sleep, 2)
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	start := time.Now()
	err := cluster.RunOpts(topo, cluster.Options{WrapTransport: fab.Wrap}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte{1})
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("sleep mode finished in %v, modeled cost ≥ 25ms", elapsed)
	}
}

func TestProfiles(t *testing.T) {
	a := Aries()
	if a.Remote.Bandwidth <= 0 || a.Local.Latency >= a.Remote.Latency*10 {
		t.Fatalf("suspicious Aries profile: %+v", a)
	}
}

func TestShortFrameRejected(t *testing.T) {
	// A raw (unwrapped) sender talking to a wrapped receiver would
	// deliver frames without the cost header; the receiver must
	// reject them rather than misread garbage.
	world, err := comm.NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	fab := NewFabric(Aries(), Virtual, 2)
	raw := comm.New(world.Transport(0))
	wrapped := comm.New(fab.Wrap(world.Transport(1)))
	done := make(chan error, 1)
	go func() {
		_, err := wrapped.Recv(0, 0)
		done <- err
	}()
	if err := raw.Send(1, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("short frame accepted")
	} else if want := "cost header"; !contains(err.Error(), want) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestFabricClockHelpers(t *testing.T) {
	fab := NewFabric(Aries(), Virtual, 3)
	fab.advance(1, 5*time.Millisecond)
	fab.syncTo(1, 2*time.Millisecond) // lower: no-op
	if fab.Clock(1) != 5*time.Millisecond {
		t.Fatal("syncTo lowered a clock")
	}
	fab.syncTo(2, 7*time.Millisecond)
	if fab.Makespan() != 7*time.Millisecond {
		t.Fatalf("makespan %v", fab.Makespan())
	}
	if fmt.Sprint(fab.Clock(0)) != "0s" {
		t.Fatal("untouched clock moved")
	}
}

// TestAllgatherModelIsLogDepth models one AllgatherInt64 under Aries
// with compute charged near zero: Bruck's allgather takes ceil(log2 p)
// rounds of one message each way per rank, so the makespan must sit
// within 2× of ceil(log2 p)·(o + L) plus the serialisation of the bytes
// a rank sends. A gather to one rank followed by a broadcast would cost
// p·o at the root instead (≈ 525 µs at p = 1 024). The ranks are
// goroutines.
func TestAllgatherModelIsLogDepth(t *testing.T) {
	prof := Aries()
	prof.ComputeScale = 1e-9
	for _, p := range []int{64, 1024} {
		fab := NewFabric(prof, Virtual, p)
		topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
		err := cluster.RunOpts(topo, cluster.Options{WrapTransport: fab.Wrap}, func(c *comm.Comm) error {
			vals, err := c.AllgatherInt64(int64(c.Rank()))
			if err == nil && (len(vals) != p || vals[p-1] != int64(p-1)) {
				err = fmt.Errorf("allgather returned %d values", len(vals))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		// Round k sends min(2^k, p-2^k) packed 8-byte values: a 4-byte
		// count, then a 4-byte length per value.
		var model time.Duration
		for k := 1; k < p; k *= 2 {
			bytes := 4 + 12*min(k, p-k)
			model += prof.Remote.Overhead + prof.Remote.Latency +
				time.Duration(float64(bytes)/prof.Remote.Bandwidth*float64(time.Second))
		}
		if got := fab.Makespan(); got < model/2 || got > 2*model {
			t.Errorf("p=%d: modeled allgather %v, want within 2× of %v", p, got, model)
		} else {
			t.Logf("p=%d: modeled allgather %v (log-depth model %v)", p, got, model)
		}
	}
}
