package comm

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// at reports whether msg starts at region[off].
func at(msg, region []byte, off int) bool {
	return len(msg) > 0 && unsafe.SliceData(msg) == &region[off]
}

func take(t *testing.T, b *Mailbox) []byte {
	t.Helper()
	m, err := b.Take(1, 9, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMailboxPostOrder: messages queued before a post keep the front of
// the region, and copies put after it land behind them, in order; an
// owned buffer put after the post is queued as is but speaks for its
// bytes of the region.
func TestMailboxPostOrder(t *testing.T) {
	b := NewMailbox()
	region := make([]byte, 12)
	b.Put(1, 9, 3, []byte("ab"))
	b.Post(1, 9, 3, region)
	b.PutCopy(1, 9, 3, []byte("cde"))
	b.Put(1, 9, 3, []byte("fg"))
	b.PutCopy(1, 9, 3, []byte("hij"))
	for i, want := range []struct {
		s   string
		off int // -1: a buffer of its own
	}{{"ab", -1}, {"cde", 2}, {"fg", -1}, {"hij", 7}} {
		m := take(t, b)
		if string(m) != want.s {
			t.Fatalf("message %d = %q, want %q", i, m, want.s)
		}
		if in := want.off >= 0 && at(m, region, want.off); in != (want.off >= 0) {
			t.Fatalf("message %d %q in place = %v, want offset %d", i, m, in, want.off)
		}
		if cap(m) != len(m) {
			t.Fatalf("message %d has spare capacity %d past its bytes", i, cap(m)-len(m))
		}
	}
	b.Revoke(1, 9, 3)
}

// TestMailboxPostOverrunCloses: a message that does not fit closes the
// region; everything after it takes the copying path.
func TestMailboxPostOverrunCloses(t *testing.T) {
	b := NewMailbox()
	region := make([]byte, 8)
	b.Post(1, 9, 3, region)
	b.PutCopy(1, 9, 3, []byte("12345"))
	b.PutCopy(1, 9, 3, []byte("6789"))
	b.PutCopy(1, 9, 3, []byte("x"))
	if m := take(t, b); !at(m, region, 0) {
		t.Fatal("first message not in place")
	}
	for _, want := range []string{"6789", "x"} {
		if m := take(t, b); string(m) != want || at(m, region, 5) {
			t.Fatalf("got %q in place, want %q copied", m, want)
		}
	}
	if dst := b.Reserve(1, 9, 3, 1); dst != nil {
		t.Fatal("closed region granted a reservation")
	}
	b.Revoke(1, 9, 3)
}

// TestMailboxReserve: a reservation writes outside the lock and lands
// in order; an abandoned one steps the offset back; Revoke waits for an
// open reservation and copies undelivered in-place messages out, so the
// region is free once it returns.
func TestMailboxReserve(t *testing.T) {
	b := NewMailbox()
	region := make([]byte, 8)
	b.Post(1, 9, 3, region)
	dst := b.Reserve(1, 9, 3, 3)
	if !at(dst, region, 0) {
		t.Fatal("reservation not at the region's front")
	}
	b.Unreserve(1, 9, 3, 3)
	dst = b.Reserve(1, 9, 3, 3)
	if !at(dst, region, 0) {
		t.Fatal("abandoned reservation did not give its bytes back")
	}
	copy(dst, "abc")

	revoked := make(chan struct{})
	go func() {
		b.Revoke(1, 9, 3)
		close(revoked)
	}()
	select {
	case <-revoked:
		t.Fatal("Revoke returned while a reservation was open")
	case <-time.After(20 * time.Millisecond):
	}
	if err := b.Land(1, 9, 3, dst); err != nil {
		t.Fatal(err)
	}
	<-revoked
	copy(region, "zzzzzzzz") // the caller owns the region again
	if m := take(t, b); string(m) != "abc" || at(m, region, 0) {
		t.Fatalf("after revoke got %q (in place %v), want a copy of \"abc\"", m, at(m, region, 0))
	}
	if dst := b.Reserve(1, 9, 3, 1); dst != nil {
		t.Fatal("revoked region granted a reservation")
	}
}

// TestMailboxWithdraw: the reservation open when a post is withdrawn
// still settles, no new one is granted after it, and Revoke then
// returns without a wait.
func TestMailboxWithdraw(t *testing.T) {
	b := NewMailbox()
	region := make([]byte, 8)
	b.Post(1, 9, 3, region)
	dst := b.Reserve(1, 9, 3, 3)
	b.Withdraw(1, 9, 3)
	b.Unreserve(1, 9, 3, len(dst))
	if more := b.Reserve(1, 9, 3, 1); more != nil {
		t.Fatal("withdrawn post granted a reservation")
	}
	b.Revoke(1, 9, 3)
	if err := b.PutCopy(1, 9, 3, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if m := take(t, b); string(m) != "ab" || at(m, region, 0) {
		t.Fatalf("after revoke got %q (in place %v), want a copy of \"ab\"", m, at(m, region, 0))
	}
}

// TestMailboxSteadyStateAllocs: once a key's queue exists, put/take
// cycles allocate nothing — emptied queues are recycled.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	b := NewMailbox()
	msg := []byte("payload")
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			b.Put(1, 9, 3, msg)
		}
		for i := 0; i < 4; i++ {
			b.Take(1, 9, 3, time.Second)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per put/take cycle, want 0", allocs)
	}
}

// TestStagedAlltoallvLandsInPlace: with RecvRegions on the in-process
// transport, every chunk a peer sends after this rank posted reaches
// Drain already at its offset in that peer's region, and the payloads
// match; through a decorator that hides Poster, no chunk does, and the
// payloads still match.
func TestStagedAlltoallvLandsInPlace(t *testing.T) {
	const p = 4
	payloads := stagedPayloads(p, 41)
	for _, hide := range []bool{false, true} {
		t.Run(fmt.Sprintf("hidden=%v", hide), func(t *testing.T) {
			world, err := NewWorld(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer world.Close()
			errs := make(chan error, p)
			var inPlace atomic.Int64
			for r := 0; r < p; r++ {
				tr := world.Transport(r)
				if hide {
					tr = WithRetry(tr, RetryPolicy{})
				}
				go func(c *Comm) { errs <- stagedInPlace(c, payloads, !hide, &inPlace) }(New(tr))
			}
			for r := 0; r < p; r++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if !hide && inPlace.Load() == 0 {
				t.Fatal("no chunk landed in place")
			}
		})
	}
}

func stagedInPlace(c *Comm, payloads [][][]byte, wantInPlace bool, inPlace *atomic.Int64) error {
	p, me := c.Size(), c.Rank()
	send, recv := make([]int64, p), make([]int64, p)
	regions := make([][]byte, p)
	for r := 0; r < p; r++ {
		send[r] = int64(len(payloads[me][r]))
		recv[r] = int64(len(payloads[r][me]))
		regions[r] = make([]byte, recv[r])
	}
	var drainErr error
	landed := make([]bool, p)
	_, err := c.StagedAlltoallv(StagedOptions{
		StageBytes:  16,
		SendBytes:   send,
		RecvBytes:   recv,
		RecvRegions: regions,
		Fill: func(dst int, off, n int64) ([]byte, error) {
			return payloads[me][dst][off : off+n], nil
		},
		Drain: func(src int, off int64, chunk []byte) error {
			// A peer may send chunks before this rank posts; they
			// arrive first, in buffers of their own.
			in := at(chunk, regions[src], int(off))
			if src != me && (in && !wantInPlace || !in && landed[src]) && drainErr == nil {
				drainErr = fmt.Errorf("rank %d: chunk from %d at %d in place = %v", me, src, off, in)
			}
			if in {
				landed[src] = true
				inPlace.Add(1)
			}
			copy(regions[src][off:], chunk)
			return nil
		},
	})
	if err != nil {
		return err
	}
	for src := range regions {
		if !bytes.Equal(regions[src], payloads[src][me]) {
			return fmt.Errorf("rank %d: payload from %d differs", me, src)
		}
	}
	return drainErr
}
