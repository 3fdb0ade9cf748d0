package comm

import (
	"errors"
	"sync"
	"time"
	"unsafe"
)

// ErrRecvTimeout marks a Take that outwaited its timeout.
var ErrRecvTimeout = errors.New("comm: receive timed out")

type msgKey struct {
	src int
	ctx uint64
	tag int32
}

// msgQueue is one key's FIFO. Emptied queues go back to the mailbox's
// spare list with their backing array, so steady traffic on a key
// allocates no queue storage per message.
type msgQueue struct {
	msgs [][]byte
	head int
}

// spareQueues bounds the emptied queues a mailbox keeps for reuse.
const spareQueues = 64

// posted is a receive region for one key (see Post): used is how many
// of its bytes the key's arrivals since the post have spoken for, in
// arrival order; inflight counts reservations (Reserve) whose bytes are
// still being written.
type posted struct {
	region   []byte
	used     int
	inflight int
	revoked  bool
}

// Mailbox holds one rank's incoming messages, keyed by (src, ctx, tag)
// with FIFO order within each key — the MPI non-overtaking guarantee —
// for every transport: the in-process world puts into it by memory copy,
// tcpcomm from its per-connection readers. A source can additionally be
// failed (its messages were definitively lost): takes from a failed
// source drain what already arrived, then surface the recorded error
// instead of blocking forever.
//
// A key may carry a posted receive region (Post, the mailbox half of
// the Poster capability). Every message queued on a posted key after
// the post speaks for the next bytes of the region, in queue order:
// PutCopy and Reserve write the payload there, so Take returns a
// subslice of the region, while an owned buffer handed to Put only
// advances the region's offset and is queued as is — its consumer
// copies it to the place the region kept for it. A message that would
// overrun the region closes it: later arrivals take the copying path.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey]*msgQueue
	spare  []*msgQueue
	posts  map[msgKey]*posted
	failed map[int]error // per-source terminal failures
	closed bool
}

// NewMailbox returns an empty, open mailbox.
func NewMailbox() *Mailbox {
	b := &Mailbox{
		queues: make(map[msgKey]*msgQueue),
		posts:  make(map[msgKey]*posted),
		failed: make(map[int]error),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Put queues data from src under (ctx, tag); the mailbox owns data from
// here on. It fails with ErrClosed once the mailbox is closed.
func (b *Mailbox) Put(src int, ctx uint64, tag int32, data []byte) error {
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if p := b.posts[k]; p != nil && !p.revoked {
		p.used = min(p.used+len(data), len(p.region))
	}
	b.pushLocked(k, data)
	return nil
}

// PutCopy is Put for a buffer the caller keeps: data is copied straight
// into the key's posted region when it has room — outside the lock, so
// takes and puts on other keys do not wait out the copy — and into a
// fresh buffer otherwise.
func (b *Mailbox) PutCopy(src int, ctx uint64, tag int32, data []byte) error {
	if dst := b.Reserve(src, ctx, tag, len(data)); dst != nil {
		copy(dst, data)
		return b.Land(src, ctx, tag, dst)
	}
	return b.Put(src, ctx, tag, append([]byte(nil), data...))
}

// Post makes region the landing place of the next payload bytes from
// src on (ctx, tag): the bytes of whatever that key already holds queued
// keep their place at the front of the region, and arrivals from here
// on fill it in order. A key holds one post at a time; posting again
// revokes the previous one first.
func (b *Mailbox) Post(src int, ctx uint64, tag int32, region []byte) {
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.revokeLocked(k)
	p := &posted{region: region}
	if q := b.queues[k]; q != nil {
		for _, m := range q.msgs[q.head:] {
			p.used += len(m)
		}
	}
	p.used = min(p.used, len(region))
	b.posts[k] = p
}

// Revoke withdraws the key's post. It returns once no reservation is
// still writing into the region, and leaves no queued message aliasing
// it — those not yet taken are copied out — so the caller may reuse
// the region as soon as Revoke returns.
func (b *Mailbox) Revoke(src int, ctx uint64, tag int32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.revokeLocked(msgKey{src: src, ctx: ctx, tag: tag})
}

// Withdraw is Revoke's first half: no reservation on the key's post is
// granted from here on, while those still being written stay in flight.
// A transport that can cut a write short (see tcpcomm) withdraws, cuts
// and then revokes, so no new write starts in between.
func (b *Mailbox) Withdraw(src int, ctx uint64, tag int32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.posts[msgKey{src: src, ctx: ctx, tag: tag}]; p != nil {
		p.revoked = true
	}
}

func (b *Mailbox) revokeLocked(k msgKey) {
	p := b.posts[k]
	if p == nil {
		return
	}
	p.revoked = true
	for p.inflight > 0 {
		b.cond.Wait()
	}
	if b.posts[k] == p {
		delete(b.posts, k)
	}
	q := b.queues[k]
	if q == nil || len(p.region) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(p.region)))
	hi := lo + uintptr(len(p.region))
	for i := q.head; i < len(q.msgs); i++ {
		if m := q.msgs[i]; len(m) > 0 {
			if a := uintptr(unsafe.Pointer(unsafe.SliceData(m))); a >= lo && a < hi {
				q.msgs[i] = append([]byte(nil), m...)
			}
		}
	}
}

// Reserve claims the next n bytes of the key's posted region for a
// payload the caller writes itself, outside the lock, and returns them;
// it returns nil when the key has no post or the region no room. Until
// the caller settles the claim — Land once the bytes are written, or
// Unreserve if writing them failed — Revoke waits, a second Reserve on
// the key waits (so payloads land in the order they were reserved), and
// nothing else from src may be Put on the key.
func (b *Mailbox) Reserve(src int, ctx uint64, tag int32, n int) []byte {
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	for p := b.posts[k]; p != nil && p.inflight > 0 && !b.closed; p = b.posts[k] {
		b.cond.Wait()
	}
	p := b.posts[k]
	if b.closed || p == nil || p.revoked || n == 0 {
		return nil
	}
	if p.used+n > len(p.region) {
		p.used = len(p.region) // overrun: the region is closed
		return nil
	}
	dst := p.region[p.used : p.used+n : p.used+n]
	p.used += n
	p.inflight++
	return dst
}

// Land queues the bytes a Reserve returned, now written, as the key's
// next message.
func (b *Mailbox) Land(src int, ctx uint64, tag int32, data []byte) error {
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.settleLocked(k)
	if b.closed {
		return ErrClosed
	}
	b.pushLocked(k, data)
	return nil
}

// Unreserve gives back a Reserve of n bytes whose payload never
// arrived; the region's offset steps back over them.
func (b *Mailbox) Unreserve(src int, ctx uint64, tag int32, n int) {
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.posts[k].used -= n
	b.settleLocked(k)
}

func (b *Mailbox) settleLocked(k msgKey) {
	if p := b.posts[k]; p != nil {
		if p.inflight--; p.inflight == 0 {
			b.cond.Broadcast()
		}
	}
}

func (b *Mailbox) pushLocked(k msgKey, data []byte) {
	q := b.queues[k]
	if q == nil {
		if n := len(b.spare); n > 0 {
			q, b.spare = b.spare[n-1], b.spare[:n-1]
		} else {
			q = &msgQueue{}
		}
		b.queues[k] = q
	}
	q.msgs = append(q.msgs, data)
	b.cond.Broadcast()
}

// popLocked dequeues k's oldest message, recycling the queue once empty.
func (b *Mailbox) popLocked(k msgKey) ([]byte, bool) {
	q := b.queues[k]
	if q == nil {
		return nil, false
	}
	data := q.msgs[q.head]
	q.msgs[q.head] = nil
	if q.head++; q.head == len(q.msgs) {
		delete(b.queues, k)
		q.msgs, q.head = q.msgs[:0], 0
		if len(b.spare) < spareQueues {
			b.spare = append(b.spare, q)
		}
	}
	return data, true
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
	var dl *deadline
	defer func() {
		if dl != nil {
			dl.timer.Stop()
		}
	}()
	for {
		if data, ok := b.popLocked(k); ok {
			return data, nil
		}
		if err := b.failed[src]; err != nil {
			return nil, err
		}
		if b.closed {
			return nil, ErrClosed
		}
		if dl != nil && dl.expired {
			return nil, ErrRecvTimeout
		}
		if timeout > 0 && dl == nil {
			dl = b.arm(timeout)
		}
		b.cond.Wait()
	}
}

// deadline bounds one Take's wait.
type deadline struct {
	expired bool // guarded by the mailbox lock
	timer   *time.Timer
}

// arm starts a take's deadline, only once the take has to wait: sync.Cond
// has no timed wait, so an AfterFunc flips the flag under the lock and
// wakes every waiter.
func (b *Mailbox) arm(d time.Duration) *deadline {
	dl := &deadline{}
	dl.timer = time.AfterFunc(d, func() {
		b.mu.Lock()
		dl.expired = true
		b.mu.Unlock()
		b.cond.Broadcast()
	})
	return dl
}

// Close unblocks every pending Take with ErrClosed and refuses further
// Puts.
func (b *Mailbox) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
