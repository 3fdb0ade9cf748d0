package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdssort/internal/comm"
	"sdssort/internal/trace"
)

// ringCap is the trace ring the tests record into: room for every event
// of their runs, which recorded checks.
const ringCap = 1 << 14

// recorded returns the events ring kept and fails the test if the ring
// was too small to keep them all. It reports through t.Errorf, so any
// goroutine may call it.
func recorded(t testing.TB, ring *trace.Ring) []trace.Event {
	t.Helper()
	if n := ring.Dropped(); n > 0 {
		t.Errorf("trace ring dropped %d events", n)
	}
	return ring.Events()
}

// tally counts a supervised run's recovery verdicts off its trace:
// supervisor.restart and supervisor.shrink events (with the ranks each
// shrink shed) and the blame each failed epoch span ends with.
type tally struct{ restarts, shrinks, shed, peersLost, panics int }

func tallyOf(events []trace.Event) tally {
	var c tally
	for _, e := range events {
		switch e.Kind {
		case "supervisor.restart":
			c.restarts++
		case "supervisor.shrink":
			c.shrinks++
			lost, _ := e.Detail["lost"].([]int)
			c.shed += len(lost)
		case trace.KindSpanEnd:
			if e.Detail["name"] == "epoch" {
				n, _ := e.Detail["peers_lost"].(int)
				c.peersLost += n
				n, _ = e.Detail["panics"].(int)
				c.panics += n
			}
		}
	}
	return c
}

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int32
	topo := Topology{Nodes: 3, CoresPerNode: 2}
	err := Run(topo, func(c *comm.Comm) error {
		count.Add(1)
		if c.Size() != 6 {
			return fmt.Errorf("size %d", c.Size())
		}
		if want := c.Rank() / 2; c.Node() != want {
			return fmt.Errorf("rank %d on node %d, want %d", c.Rank(), c.Node(), want)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 6 {
		t.Fatalf("ran %d ranks", count.Load())
	}
}

func TestRunPropagatesRankErrors(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 1}
	sentinel := errors.New("rank failure")
	err := Run(topo, func(c *comm.Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// Rank 0 blocks on a receive that will never come; the
		// launcher must unblock it by closing the fabric.
		_, err := c.Recv(1, 0)
		if err == nil {
			return errors.New("expected closed-fabric error")
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error lacks rank attribution: %v", err)
	}
}

func TestRunInvalidTopology(t *testing.T) {
	if err := Run(Topology{}, func(c *comm.Comm) error { return nil }); err == nil {
		t.Fatal("zero topology accepted")
	}
	if err := Run(Topology{Nodes: -1, CoresPerNode: 2}, func(c *comm.Comm) error { return nil }); err == nil {
		t.Fatal("negative topology accepted")
	}
}

func TestGatherCollectsByRank(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	out, err := Gather(topo, Options{}, func(c *comm.Comm) (int, error) {
		return c.Rank() * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range out {
		if v != r*10 {
			t.Fatalf("out[%d]=%d", r, v)
		}
	}
}

func TestGatherError(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 1}
	_, err := Gather(topo, Options{}, func(c *comm.Comm) (int, error) {
		if c.Rank() == 0 {
			return 0, errors.New("boom")
		}
		return 1, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// wrapCount verifies the transport decoration hook fires once per rank.
func TestRunOptsWrapTransport(t *testing.T) {
	var wraps atomic.Int32
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	err := RunOpts(topo, Options{
		WrapTransport: func(tr comm.Transport) comm.Transport {
			wraps.Add(1)
			return tr
		},
	}, func(c *comm.Comm) error { return c.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if wraps.Load() != 4 {
		t.Fatalf("wrapped %d transports", wraps.Load())
	}
}

func TestTopologySize(t *testing.T) {
	if (Topology{Nodes: 3, CoresPerNode: 4}).Size() != 12 {
		t.Fatal("size")
	}
}

func TestRunRecoversRankPanic(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 1}
	err := Run(topo, func(c *comm.Comm) error {
		if c.Rank() == 1 {
			panic("rank blew up")
		}
		// Rank 0 blocks; the panicking rank's cleanup must unblock it.
		_, rerr := c.Recv(1, 0)
		if rerr == nil {
			return errors.New("expected closed-fabric error")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic: rank blew up") {
		t.Fatalf("got %v", err)
	}
}

// faultySend decorates a transport so every send from selected ranks
// fails transiently — the minimal stand-in for a dead network path.
type faultySend struct {
	comm.Transport
	fail bool
}

func (f *faultySend) Send(dst int, ctx uint64, tag int32, data []byte) error {
	if f.fail {
		return comm.Transient(errors.New("cluster_test: injected send failure"))
	}
	return f.Transport.Send(dst, ctx, tag, data)
}

// TestFaultPeerLostPropagatesThroughRun: when one rank's sends all fail
// and the retry budget runs out, RunOpts must return a joined error
// carrying comm.ErrPeerLost — and the fabric teardown must unblock the
// healthy ranks instead of deadlocking the launch.
func TestFaultPeerLostPropagatesThroughRun(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	policy := comm.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}
	opts := Options{
		WrapTransport: func(tr comm.Transport) comm.Transport {
			return comm.WithRetry(&faultySend{Transport: tr, fail: tr.Rank() == 1}, policy)
		},
	}
	done := make(chan error, 1)
	go func() {
		done <- RunOpts(topo, opts, func(c *comm.Comm) error { return c.Barrier() })
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("launch still blocked — lost peer deadlocked the cluster")
	}
	if err == nil {
		t.Fatal("launch succeeded with rank 1's sends failing")
	}
	if _, ok := comm.PeerLost(err); !ok {
		t.Fatalf("want comm.ErrPeerLost in the joined error, got: %v", err)
	}
}

func TestRunSupervisedRecoversPanicWithOneRestart(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	rec := trace.NewRing(ringCap)
	var attempts atomic.Int32
	err := RunSupervised(topo, Options{MaxRestarts: 2, Trace: rec},
		func(ep Epoch, c *comm.Comm) error {
			if c.Rank() == 0 {
				attempts.Add(1)
			}
			if ep.N == 0 && c.Rank() == 1 {
				panic("injected crash")
			}
			return c.Barrier()
		})
	if err != nil {
		t.Fatalf("supervised run did not recover: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("ran %d epochs, want 2", got)
	}
	if got := tallyOf(recorded(t, rec)); got.restarts != 1 || got.panics != 1 || got.peersLost != 0 {
		t.Fatalf("recovery tally %+v, want one restart after one panic", got)
	}
	var kinds []string
	for _, e := range recorded(t, rec) {
		kinds = append(kinds, e.Kind)
	}
	// Each supervised attempt is wrapped in an "epoch" span: the failed
	// epoch 0 closes before the restart marker, and the succeeding epoch
	// 1's end is the run's last record.
	want := []string{
		"span.begin", "span.end", "supervisor.restart",
		"span.begin", "span.end",
	}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("trace kinds %v, want %v", kinds, want)
	}
	spans := trace.BuildSpans(recorded(t, rec))
	if len(spans) != 2 || spans[0].Name != "epoch" || spans[1].Name != "epoch" {
		t.Fatalf("spans %+v, want two epoch spans", spans)
	}
	if spans[0].Detail["outcome"] != "error" || spans[1].Detail["outcome"] != "ok" {
		t.Fatalf("epoch outcomes %v / %v, want error then ok",
			spans[0].Detail["outcome"], spans[1].Detail["outcome"])
	}
}

func TestRunSupervisedDoesNotRetryDeterministicErrors(t *testing.T) {
	topo := Topology{Nodes: 1, CoresPerNode: 2}
	sentinel := errors.New("bad input file")
	var attempts atomic.Int32
	rec := trace.NewRing(ringCap)
	err := RunSupervised(topo, Options{MaxRestarts: 5, Trace: rec},
		func(ep Epoch, c *comm.Comm) error {
			if c.Rank() == 0 {
				attempts.Add(1)
			}
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("deterministic error charged to the restart budget: %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("deterministic failure retried %d times", attempts.Load())
	}
	if got := tallyOf(recorded(t, rec)); got.restarts != 0 {
		t.Fatal("restart counted for a non-recoverable failure")
	}
}

func TestRunSupervisedBudgetExhaustedStaysTyped(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 1}
	policy := comm.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}
	rec := trace.NewRing(ringCap)
	err := RunSupervised(topo, Options{
		MaxRestarts: 1,
		Trace:       rec,
		WrapTransport: func(tr comm.Transport) comm.Transport {
			// Rank 1's sends fail in every epoch: the restart budget
			// cannot save this job.
			return comm.WithRetry(&faultySend{Transport: tr, fail: tr.Rank() == 1}, policy)
		},
	}, func(ep Epoch, c *comm.Comm) error { return c.Barrier() })
	if err == nil {
		t.Fatal("run succeeded with a permanently dead rank")
	}
	if !strings.Contains(err.Error(), "restart budget 1 exhausted") {
		t.Fatalf("missing budget context: %v", err)
	}
	if _, ok := comm.PeerLost(err); !ok {
		t.Fatalf("budget-exhausted error no longer matches comm.ErrPeerLost: %v", err)
	}
	if got := tallyOf(recorded(t, rec)); got.restarts != 1 || got.peersLost == 0 {
		t.Fatalf("recovery tally %+v", got)
	}
}

// TestFaultPeerLostUnblocksAllRanksNoLeak asserts the teardown contract
// behind supervised restarts: when ErrPeerLost fires inside a
// collective, every rank's goroutine must exit — a supervisor that
// relaunches epochs over leaked goroutines would accumulate them
// without bound.
func TestFaultPeerLostUnblocksAllRanksNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	topo := Topology{Nodes: 2, CoresPerNode: 4}
	policy := comm.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}
	opts := Options{
		WrapTransport: func(tr comm.Transport) comm.Transport {
			return comm.WithRetry(&faultySend{Transport: tr, fail: tr.Rank() == 3}, policy)
		},
	}
	for i := 0; i < 5; i++ {
		err := RunOpts(topo, opts, func(c *comm.Comm) error {
			// Alltoall keeps every rank in flight when rank 3 dies.
			_, err := c.Alltoall(make([][]byte, c.Size()))
			return err
		})
		if err == nil {
			t.Fatal("alltoall succeeded with rank 3's sends failing")
		}
		if _, ok := comm.PeerLost(err); !ok {
			t.Fatalf("want comm.ErrPeerLost, got: %v", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		// A couple of runtime-internal goroutines (GC workers, timer
		// scavenger) may come and go; rank goroutines would leak 8 per
		// iteration, far above this slack.
		if after <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Run: %d before, %d after 5 faulted launches", before, after)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
