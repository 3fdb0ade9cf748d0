package comm

import (
	"errors"
	"sync"
	"time"
)

// ErrRecvTimeout marks a Take that outwaited its timeout.
var ErrRecvTimeout = errors.New("comm: receive timed out")

type msgKey struct {
	src int
	ctx uint64
	tag int32
}

// Mailbox holds one rank's incoming messages, keyed by (src, ctx, tag)
// with FIFO order within each key — the MPI non-overtaking guarantee —
// for every transport: the in-process world puts into it by memory copy,
// tcpcomm from its per-connection readers. A source can additionally be
// failed (its messages were definitively lost): takes from a failed
// source drain what already arrived, then surface the recorded error
// instead of blocking forever.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey][][]byte
	failed map[int]error // per-source terminal failures
	closed bool
}

// NewMailbox returns an empty, open mailbox.
func NewMailbox() *Mailbox {
	b := &Mailbox{queues: make(map[msgKey][][]byte), failed: make(map[int]error)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Put queues data from src under (ctx, tag); the mailbox owns data from
// here on. It fails with ErrClosed once the mailbox is closed.
func (b *Mailbox) Put(src int, ctx uint64, tag int32, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.queues[k] = append(b.queues[k], data)
	b.cond.Broadcast()
	return nil
}

// Fail marks src as lost: blocked and future takes from src return err
// once their queue is drained. The first failure per source wins.
func (b *Mailbox) Fail(src int, err error) {
	b.mu.Lock()
	if _, dup := b.failed[src]; !dup {
		b.failed[src] = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Take returns the next message for (src, ctx, tag), blocking until one
// arrives, src fails or the mailbox closes (ErrClosed). With timeout > 0
// the wait is bounded and expiry returns ErrRecvTimeout.
func (b *Mailbox) Take(src int, ctx uint64, tag int32, timeout time.Duration) ([]byte, error) {
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	expired := false
	if timeout > 0 {
		// sync.Cond has no timed wait: an AfterFunc flips the flag
		// under the lock and wakes every waiter.
		timer := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			expired = true
			b.mu.Unlock()
			b.cond.Broadcast()
		})
		defer timer.Stop()
	}
	for {
		if q := b.queues[k]; len(q) > 0 {
			data := q[0]
			if len(q) == 1 {
				delete(b.queues, k)
			} else {
				b.queues[k] = q[1:]
			}
			return data, nil
		}
		if err := b.failed[src]; err != nil {
			return nil, err
		}
		if b.closed {
			return nil, ErrClosed
		}
		if expired {
			return nil, ErrRecvTimeout
		}
		b.cond.Wait()
	}
}

// Close unblocks every pending Take with ErrClosed and refuses further
// Puts.
func (b *Mailbox) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
