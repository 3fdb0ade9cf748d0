package memlimit

import (
	"errors"
	"sync"
	"testing"
)

func TestReserveWithinBudget(t *testing.T) {
	g := New(100)
	if err := g.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(40); err != nil {
		t.Fatal(err)
	}
	if g.Used() != 100 || g.Peak() != 100 {
		t.Fatalf("used=%d peak=%d", g.Used(), g.Peak())
	}
}

func TestReserveOverBudget(t *testing.T) {
	g := New(100)
	if err := g.Reserve(101); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("got %v", err)
	}
	if g.Used() != 0 {
		t.Fatal("failed reservation changed usage")
	}
	if err := g.Reserve(100); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("got %v", err)
	}
}

func TestReleaseAndClamp(t *testing.T) {
	g := New(50)
	if err := g.Reserve(30); err != nil {
		t.Fatal(err)
	}
	g.Release(10)
	if g.Used() != 20 {
		t.Fatalf("used=%d", g.Used())
	}
	g.Release(1000) // clamps at 0
	if g.Used() != 0 {
		t.Fatalf("used=%d after over-release", g.Used())
	}
	if g.Peak() != 30 {
		t.Fatalf("peak=%d", g.Peak())
	}
}

func TestNilAndUnlimited(t *testing.T) {
	var g *Gauge
	if err := g.Reserve(1 << 60); err != nil {
		t.Fatal("nil gauge rejected reservation")
	}
	g.Release(1)
	if g.Used() != 0 || g.Peak() != 0 || g.Budget() != 0 {
		t.Fatal("nil gauge reported state")
	}
	u := New(0)
	if err := u.Reserve(1 << 60); err != nil {
		t.Fatal("unlimited gauge rejected reservation")
	}
}

func TestNegativeReservation(t *testing.T) {
	g := New(10)
	if err := g.Reserve(-1); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestConcurrentReserve(t *testing.T) {
	g := New(1000)
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted := 0
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Reserve(10) == nil {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 100 {
		t.Fatalf("granted %d of 100 exact-fit reservations", granted)
	}
	if g.Used() != 1000 {
		t.Fatalf("used=%d", g.Used())
	}
	if g.Reserve(1) == nil {
		t.Fatal("over-budget reservation accepted after concurrent fill")
	}
}

func TestFairShareBudget(t *testing.T) {
	if got := FairShareBudget(8000, 8, 4); got != 4000 {
		t.Fatalf("got %d", got)
	}
	if got := FairShareBudget(100, 0, 4); got != 0 {
		t.Fatalf("ranks=0: got %d", got)
	}
	if got := FairShareBudget(100, 4, 0); got != 0 {
		t.Fatalf("multiple=0: got %d", got)
	}
}
