package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestCloseDupChildKeepsParentAlive pins the ownership contract that
// job multiplexing depends on: closing a Dup'd (or Split) communicator
// must not tear down the transport under its parent. Only the root
// communicator from New/NewNamed owns the fabric.
func TestCloseDupChildKeepsParentAlive(t *testing.T) {
	runRanks(t, 2, nil, func(c *Comm) error {
		d := c.Dup()
		// The child works before Close...
		if err := d.Barrier(); err != nil {
			return fmt.Errorf("dup barrier: %w", err)
		}
		if err := d.Close(); err != nil {
			return fmt.Errorf("dup close: %w", err)
		}
		// ...and the parent still works after it: point-to-point and a
		// collective both traverse the transport the child did not own.
		peer := 1 - c.Rank()
		if err := c.Send(peer, 3, []byte{byte(c.Rank())}); err != nil {
			return fmt.Errorf("parent send after child close: %w", err)
		}
		got, err := c.Recv(peer, 3)
		if err != nil {
			return fmt.Errorf("parent recv after child close: %w", err)
		}
		if len(got) != 1 || got[0] != byte(peer) {
			return fmt.Errorf("parent recv got %v, want [%d]", got, peer)
		}
		return c.Barrier()
	})
}

// TestCloseAttachedCommKeepsFabricAlive is the same contract one level
// up: Attach'd world comms (what the engine builds per job) never own
// the transport, so dropping one job's comm leaves the fabric serving
// every other job.
func TestCloseAttachedCommKeepsFabricAlive(t *testing.T) {
	world, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := world.Transport(rank)
			job0 := Attach(tr, "world/job0")
			if err := job0.Barrier(); err != nil {
				errs[rank] = err
				return
			}
			if err := job0.Close(); err != nil {
				errs[rank] = err
				return
			}
			// The fabric survived job0's comm: job1 runs on it.
			job1 := Attach(tr, "world/job1")
			errs[rank] = job1.Barrier()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// closeSpy records whether Comm.Close reached the transport.
type closeSpy struct {
	Transport
	closes int
}

func (s *closeSpy) Close() error {
	s.closes++
	return s.Transport.Close()
}

// TestCloseOwnership pins who may tear the transport down: the root
// communicator from New/NewNamed owns it and its Close passes through;
// Attach'd comms and derived children (Dup) never do.
func TestCloseOwnership(t *testing.T) {
	world, err := NewWorld(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()

	spy := &closeSpy{Transport: world.Transport(0)}
	owner := New(spy)
	child := owner.Dup()
	attached := Attach(spy, "world/job0")

	if err := child.Close(); err != nil || spy.closes != 0 {
		t.Fatalf("dup child Close: err=%v, transport closes=%d, want 0", err, spy.closes)
	}
	if err := attached.Close(); err != nil || spy.closes != 0 {
		t.Fatalf("attached Close: err=%v, transport closes=%d, want 0", err, spy.closes)
	}
	if err := owner.Close(); err != nil || spy.closes != 1 {
		t.Fatalf("owner Close: err=%v, transport closes=%d, want 1", err, spy.closes)
	}
}

// TestConcurrentSplitOnDups runs Split and SplitByNode concurrently on
// two Dup'd communicators of the same fabric — the pattern two
// concurrent engine jobs produce — and checks both derive correct
// subgroups and carry traffic without cross-talk, over repeated rounds.
func TestConcurrentSplitOnDups(t *testing.T) {
	const size = 4
	nodeOf := BlockNodes(size, 2) // 2 nodes × 2 cores
	runRanks(t, size, nodeOf, func(c *Comm) error {
		a := c.Dup()
		b := c.Dup()
		for round := 0; round < 5; round++ {
			var wg sync.WaitGroup
			errs := make([]error, 2)
			wg.Add(2)
			// Split on comm a: parity groups, each of 2 ranks.
			go func() {
				defer wg.Done()
				sub, err := a.Split(a.Rank()%2, a.Rank())
				if err != nil {
					errs[0] = err
					return
				}
				if sub.Size() != 2 {
					errs[0] = fmt.Errorf("parity split size %d, want 2", sub.Size())
					return
				}
				// Exchange payloads within the subgroup to prove the
				// derived comm carries traffic isolated from b's.
				peer := 1 - sub.Rank()
				payload := []byte(fmt.Sprintf("a%d-%d", round, a.Rank()))
				if err := sub.Send(peer, 1, payload); err != nil {
					errs[0] = err
					return
				}
				got, err := sub.Recv(peer, 1)
				if err != nil {
					errs[0] = err
					return
				}
				want := fmt.Sprintf("a%d-%d", round, sub.WorldRank(peer))
				if string(got) != want {
					errs[0] = fmt.Errorf("parity subgroup got %q, want %q", got, want)
				}
			}()
			// SplitByNode on comm b, concurrently.
			go func() {
				defer wg.Done()
				local, _, err := b.SplitByNode()
				if err != nil {
					errs[1] = err
					return
				}
				if local.Size() != 2 {
					errs[1] = fmt.Errorf("node-local size %d, want 2", local.Size())
					return
				}
				sum, err := local.AllreduceInt64(int64(b.Rank()), func(x, y int64) int64 { return x + y })
				if err != nil {
					errs[1] = err
					return
				}
				// Ranks 0+1 on node 0, 2+3 on node 1.
				want := int64(1)
				if b.Node() == 1 {
					want = 5
				}
				if sum != want {
					errs[1] = fmt.Errorf("node-local rank sum %d, want %d", sum, want)
				}
			}()
			wg.Wait()
			if err := errors.Join(errs[0], errs[1]); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		return nil
	})
}
