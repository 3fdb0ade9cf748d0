package comm

import (
	"errors"
	"fmt"
)

// ErrPeerLost reports that communication with a peer rank was abandoned
// after the retry budget was exhausted (or a failure detector fired).
// Rank is the *world* rank of the lost peer — the transport-level
// identity, not a sub-communicator rank — so reports from different
// communicators of the same job name the same process consistently.
//
// It propagates unchanged through point-to-point ops, collectives and
// the cluster launcher; detect it with errors.As or the PeerLost
// helper.
type ErrPeerLost struct {
	Rank int
	Err  error // final underlying error, may be nil
}

func (e *ErrPeerLost) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("comm: peer rank %d lost: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("comm: peer rank %d lost", e.Rank)
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *ErrPeerLost) Unwrap() error { return e.Err }

// PeerLost reports whether err (anywhere in its wrap chain) is an
// ErrPeerLost, returning the world rank of the lost peer.
func PeerLost(err error) (rank int, ok bool) {
	var e *ErrPeerLost
	if errors.As(err, &e) {
		return e.Rank, true
	}
	return -1, false
}

// ErrTransient classifies an error as retryable: the failed operation
// had no effect and may be attempted again. Transports and fault
// injectors mark errors with Transient; the WithRetry decorator and
// tcpcomm's send path retry only errors satisfying IsTransient.
var ErrTransient = errors.New("comm: transient fault")

type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }

// Unwrap makes the error match both ErrTransient and its cause.
func (e *transientError) Unwrap() []error { return []error{ErrTransient, e.err} }

// Transient marks err as retryable. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }
