package comm

import (
	"errors"
	"testing"
	"time"
)

// fakeTransport counts operations and fails them according to a
// script: failures[i] non-nil means attempt i fails with that error.
type fakeTransport struct {
	rank, size int
	sendCalls  int
	recvCalls  int
	sendErrs   []error
	recvErrs   []error
}

func (f *fakeTransport) Rank() int      { return f.rank }
func (f *fakeTransport) Size() int      { return f.size }
func (f *fakeTransport) Node() int      { return 0 }
func (f *fakeTransport) NodeOf(int) int { return 0 }
func (f *fakeTransport) Close() error   { return nil }

func (f *fakeTransport) Send(dst int, ctx uint64, tag int32, data []byte) error {
	i := f.sendCalls
	f.sendCalls++
	if i < len(f.sendErrs) {
		return f.sendErrs[i]
	}
	return nil
}

func (f *fakeTransport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	i := f.recvCalls
	f.recvCalls++
	if i < len(f.recvErrs) {
		return nil, f.recvErrs[i]
	}
	return []byte("ok"), nil
}

func fastPolicy(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Jitter: 0.2, Seed: 7}
}

func TestRetryBackoffDeterministicAndCapped(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Jitter: 0.5, Seed: 42}
	a, b := NewRetrier(p), NewRetrier(p)
	for i := 0; i < 20; i++ {
		da, db := a.Backoff(i), b.Backoff(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		// The cap applies before jitter: delay ≤ MaxDelay·(1+J/2).
		if lim := time.Duration(float64(p.MaxDelay) * (1 + p.Jitter/2)); da > lim {
			t.Fatalf("attempt %d: backoff %v above cap %v", i, da, lim)
		}
		if da <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", i, da)
		}
	}
	// Different seeds should decorrelate.
	p2 := p
	p2.Seed = 43
	c := NewRetrier(p2)
	same := 0
	for i := 0; i < 20; i++ {
		if NewRetrier(p).Backoff(i) == c.Backoff(i) {
			same++
		}
	}
	if same == 20 {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	calls := 0
	err := NewRetrier(fastPolicy(5)).Do(func() error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	}, IsTransient)
	if err != nil {
		t.Fatalf("retriable op failed: %v", err)
	}
	if calls != 3 {
		t.Fatalf("expected 3 attempts, got %d", calls)
	}
}

func TestRetryNonTransientStopsImmediately(t *testing.T) {
	fatal := errors.New("fatal")
	calls := 0
	err := NewRetrier(fastPolicy(5)).Do(func() error {
		calls++
		return fatal
	}, IsTransient)
	if !errors.Is(err, fatal) {
		t.Fatalf("got %v, want the fatal error", err)
	}
	if calls != 1 {
		t.Fatalf("non-transient error retried %d times", calls)
	}
}

func TestRetryTransportSendExhaustionIsPeerLost(t *testing.T) {
	boom := Transient(errors.New("drop"))
	ft := &fakeTransport{rank: 0, size: 4, sendErrs: []error{boom, boom, boom, boom, boom}}
	tr := WithRetry(ft, fastPolicy(3))
	err := tr.Send(2, 1, 5, []byte("x"))
	if err == nil {
		t.Fatal("exhausted send succeeded")
	}
	rank, ok := PeerLost(err)
	if !ok || rank != 2 {
		t.Fatalf("want ErrPeerLost{Rank:2}, got %v", err)
	}
	if !IsTransient(err) {
		t.Fatalf("peer-lost error should still expose its transient cause: %v", err)
	}
	if ft.sendCalls != 3 {
		t.Fatalf("budget of 3 attempts used %d", ft.sendCalls)
	}
}

func TestRetryTransportSendRecovers(t *testing.T) {
	boom := Transient(errors.New("drop"))
	ft := &fakeTransport{rank: 0, size: 4, sendErrs: []error{boom, boom}}
	tr := WithRetry(ft, fastPolicy(4))
	if err := tr.Send(1, 0, 0, nil); err != nil {
		t.Fatalf("send within budget failed: %v", err)
	}
	if ft.sendCalls != 3 {
		t.Fatalf("expected 3 attempts, got %d", ft.sendCalls)
	}
}

func TestRetryTransportRecvExhaustionIsPeerLost(t *testing.T) {
	boom := Transient(errors.New("rx"))
	ft := &fakeTransport{rank: 1, size: 4, recvErrs: []error{boom, boom}}
	tr := WithRetry(ft, fastPolicy(2))
	_, err := tr.Recv(3, 0, 0)
	rank, ok := PeerLost(err)
	if !ok || rank != 3 {
		t.Fatalf("want ErrPeerLost{Rank:3}, got %v", err)
	}

	// A fresh budget with one failure left recovers and returns data.
	ft2 := &fakeTransport{rank: 1, size: 4, recvErrs: []error{boom}}
	data, err := WithRetry(ft2, fastPolicy(2)).Recv(3, 0, 0)
	if err != nil || string(data) != "ok" {
		t.Fatalf("recv within budget: %q, %v", data, err)
	}
}

func TestRetryNonTransientErrorsPassThroughUnwrapped(t *testing.T) {
	ft := &fakeTransport{rank: 0, size: 2, sendErrs: []error{ErrClosed}}
	err := WithRetry(ft, fastPolicy(4)).Send(1, 0, 0, nil)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if _, ok := PeerLost(err); ok {
		t.Fatal("closed transport must not masquerade as a lost peer")
	}
}

func TestRetryPeerLostErrorShape(t *testing.T) {
	cause := errors.New("underlying")
	e := &ErrPeerLost{Rank: 7, Err: cause}
	if !errors.Is(e, cause) {
		t.Fatal("ErrPeerLost does not unwrap to its cause")
	}
	var target *ErrPeerLost
	if !errors.As(error(e), &target) || target.Rank != 7 {
		t.Fatalf("errors.As failed on %v", e)
	}
	if r, ok := PeerLost(errors.Join(errors.New("other"), e)); !ok || r != 7 {
		t.Fatal("PeerLost missed a joined ErrPeerLost")
	}
}

// TestWithRecvDeadline: before the deadline a failure-detector verdict
// re-posts the receive; other errors, and any verdict after the
// deadline, surface at once.
func TestWithRecvDeadline(t *testing.T) {
	timedOut := &ErrPeerLost{Rank: 1, Err: errors.New("receive timed out")}

	late := &fakeTransport{size: 2, recvErrs: []error{timedOut, timedOut}}
	data, err := WithRecvDeadline(late, time.Now().Add(time.Minute)).Recv(1, 0, 0)
	if err != nil || string(data) != "ok" || late.recvCalls != 3 {
		t.Fatalf("late peer: %q, %v after %d receives, want ok on the third", data, err, late.recvCalls)
	}

	closed := &fakeTransport{size: 2, recvErrs: []error{ErrClosed}}
	if _, err := WithRecvDeadline(closed, time.Now().Add(time.Minute)).Recv(1, 0, 0); !errors.Is(err, ErrClosed) || closed.recvCalls != 1 {
		t.Fatalf("closed transport: %v after %d receives, want ErrClosed at once", err, closed.recvCalls)
	}

	dead := &fakeTransport{size: 2, recvErrs: []error{timedOut, timedOut}}
	_, err = WithRecvDeadline(dead, time.Now()).Recv(1, 0, 0)
	if r, ok := PeerLost(err); !ok || r != 1 || dead.recvCalls != 1 {
		t.Fatalf("past the deadline: %v after %d receives, want the verdict at once", err, dead.recvCalls)
	}
}
