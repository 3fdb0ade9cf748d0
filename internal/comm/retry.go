package comm

import (
	"math/rand/v2"
	"sync"
	"time"
)

// RetryPolicy is a capped-exponential-backoff-with-jitter retry budget,
// shared by the generic WithRetry decorator and tcpcomm's reconnect
// paths. The zero value of any field is replaced by its default, so
// callers set only what they care about.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 5). An operation that fails transiently MaxAttempts
	// times is abandoned with ErrPeerLost.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 2ms);
	// each further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 250ms).
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over ±Jitter/2 of its value
	// (default 0.2), decorrelating retries from ranks that failed
	// together.
	Jitter float64
	// Seed makes the jitter sequence deterministic (default 1).
	Seed int64
}

// DefaultRetryPolicy returns the stock budget: 5 attempts, 2ms base,
// 250ms cap, 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Jitter: 0.2, Seed: 1}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Jitter <= 0 {
		p.Jitter = d.Jitter
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// Retrier executes operations under a RetryPolicy. It is safe for
// concurrent use; the jitter stream is deterministic for a given seed
// (though interleaving across goroutines is not).
type Retrier struct {
	p   RetryPolicy
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier builds a retrier, filling zero policy fields with
// defaults.
func NewRetrier(p RetryPolicy) *Retrier {
	p = p.withDefaults()
	return &Retrier{p: p, rng: rand.New(rand.NewPCG(uint64(p.Seed), 0x9e3779b97f4a7c15))}
}

// Policy returns the effective (default-filled) policy.
func (r *Retrier) Policy() RetryPolicy { return r.p }

// Backoff returns the jittered delay to sleep before retry number
// attempt (0-based: Backoff(0) precedes the second try).
func (r *Retrier) Backoff(attempt int) time.Duration {
	if attempt > 30 {
		attempt = 30 // avoid shift overflow; MaxDelay caps long before this
	}
	d := r.p.BaseDelay << uint(attempt)
	if d <= 0 || d > r.p.MaxDelay {
		d = r.p.MaxDelay
	}
	r.mu.Lock()
	u := r.rng.Float64()
	r.mu.Unlock()
	// Spread over [d·(1−J/2), d·(1+J/2)).
	return time.Duration(float64(d) * (1 - r.p.Jitter/2 + r.p.Jitter*u))
}

// Do runs op up to MaxAttempts times, sleeping Backoff between tries,
// retrying only while retryable(err) holds. It returns the last error.
func (r *Retrier) Do(op func() error, retryable func(error) bool) error {
	var err error
	for attempt := 0; attempt < r.p.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(r.Backoff(attempt - 1))
		}
		if err = op(); err == nil || !retryable(err) {
			return err
		}
	}
	return err
}

// WithRetry decorates a transport so that Send and Recv calls failing
// with transient errors (IsTransient) are retried under the policy,
// and budget exhaustion surfaces as *ErrPeerLost naming the peer's
// world rank. It composes with any transport whose transient failures
// are side-effect free — the contract faultnet's injector guarantees
// (faults are injected before the underlying operation runs). tcpcomm
// does not need this decorator: its send path retries internally with
// reconnect and retransmit dedup.
func WithRetry(tr Transport, p RetryPolicy) Transport {
	return &retryTransport{Transport: tr, r: NewRetrier(p)}
}

type retryTransport struct {
	Transport
	r *Retrier
}

func (t *retryTransport) Send(dst int, ctx uint64, tag int32, data []byte) error {
	err := t.r.Do(func() error { return t.Transport.Send(dst, ctx, tag, data) }, IsTransient)
	if err != nil && IsTransient(err) {
		return &ErrPeerLost{Rank: dst, Err: err}
	}
	return err
}

func (t *retryTransport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	var data []byte
	err := t.r.Do(func() error {
		var e error
		data, e = t.Transport.Recv(src, ctx, tag)
		return e
	}, IsTransient)
	if err != nil && IsTransient(err) {
		return nil, &ErrPeerLost{Rank: src, Err: err}
	}
	return data, err
}

// WithRecvDeadline decorates tr so a Recv rides out the transport's
// receive failure detector until deadline: an ErrPeerLost verdict before
// then re-posts the receive instead of surfacing. A timed-out receive
// consumed nothing, so re-posting is safe. It is for rendezvous points
// where the peer is known to be alive but may arrive late — survivors
// re-forming a world leave the dying sort up to one -recv-timeout apart,
// and the rendezvous, not the detector, must decide how long to wait.
func WithRecvDeadline(tr Transport, deadline time.Time) Transport {
	return &patientTransport{Transport: tr, deadline: deadline}
}

type patientTransport struct {
	Transport
	deadline time.Time
}

func (t *patientTransport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	for {
		data, err := t.Transport.Recv(src, ctx, tag)
		if _, lost := PeerLost(err); !lost || !time.Now().Before(t.deadline) {
			return data, err
		}
		time.Sleep(10 * time.Millisecond) // a sticky verdict must not spin
	}
}
