// Package partition implements the paper's skew-aware data partition
// (SdssPartition, Fig. 2), the replicated-pivot scan (SdssReplicated,
// Fig. 3), and the local-pivot-accelerated boundary search (§2.5.1).
// The functions here are pure — the one collective the stable version
// needs (an all-gather of duplicate counts) is injected by the caller —
// so the same code drives the distributed sort, the shared-memory
// parallel merge, and the unit tests.
package partition

// Locator finds pivot boundaries inside one rank's sorted data. The
// three implementations are the three methods Fig. 6b compares:
// sequential full scan, plain binary search, and the paper's local-pivot
// accelerated search.
type Locator[T any] interface {
	// UpperBound returns the smallest index i such that v < data[i]
	// (len(data) if none), i.e. one past the last element <= v.
	UpperBound(data []T, v T) int
	// LowerBound returns the smallest index i such that data[i] >= v.
	LowerBound(data []T, v T) int
}

// UpperBound is the classic binary search: first index whose element
// compares greater than v.
func UpperBound[T any](data []T, v T, cmp func(a, b T) int) int {
	lo, hi := 0, len(data)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp(data[mid], v) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LowerBound is the classic binary search: first index whose element
// compares greater than or equal to v.
func LowerBound[T any](data []T, v T, cmp func(a, b T) int) int {
	lo, hi := 0, len(data)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp(data[mid], v) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Binary is the plain binary-search locator.
type Binary[T any] struct {
	Cmp func(a, b T) int
}

func (b Binary[T]) UpperBound(data []T, v T) int { return UpperBound(data, v, b.Cmp) }
func (b Binary[T]) LowerBound(data []T, v T) int { return LowerBound(data, v, b.Cmp) }

// Stripe is the paper's local-pivot locator: the k-1 local pivots that
// regular sampling took at i·n/k index the sorted data, so a boundary
// search first ranks the value among the local pivots (O(log k)) and
// then searches only stripe i = [i·n/k, (i+1)·n/k] between two adjacent
// local pivots (O(log(n/k))) — the shift space reduction of §2.5.1.
// Pivots must be exactly that regular sample of the data searched, with
// k = len(Pivots)+1.
type Stripe[T any] struct {
	Pivots []T // the k-1 local pivots data[i·n/k], 0 < i < k
	Cmp    func(a, b T) int
}

// NewStripe builds the locator from sorted data by regular sampling
// with k-1 pivots, data[i·n/k] for 0 < i < k, mirroring line 8 of the
// SDS-Sort listing. With n < k a record is picked more than once; empty
// data or k ≤ 1 has no pivots.
func NewStripe[T any](data []T, k int, cmp func(a, b T) int) Stripe[T] {
	n := len(data)
	if n == 0 || k <= 1 {
		return Stripe[T]{Cmp: cmp}
	}
	pivots := make([]T, 0, k-1)
	for i := 1; i < k; i++ {
		pivots = append(pivots, data[i*n/k])
	}
	return Stripe[T]{Pivots: pivots, Cmp: cmp}
}

// stripe returns the stripe a value ranking pi among the pivots lies
// in: pivot j sits at data[(j+1)·n/k], so the boundary falls in
// data[pi·n/k : (pi+1)·n/k], both ends included as results.
func (s Stripe[T]) stripe(data []T, pi int) (lo, hi int) {
	n, k := len(data), len(s.Pivots)+1
	return pi * n / k, (pi + 1) * n / k
}

func (s Stripe[T]) UpperBound(data []T, v T) int {
	lo, hi := s.stripe(data, UpperBound(s.Pivots, v, s.Cmp))
	return lo + UpperBound(data[lo:hi], v, s.Cmp)
}

func (s Stripe[T]) LowerBound(data []T, v T) int {
	lo, hi := s.stripe(data, LowerBound(s.Pivots, v, s.Cmp))
	return lo + LowerBound(data[lo:hi], v, s.Cmp)
}

// Scan is the O(n) sequential-scan locator, the baseline of Fig. 6b.
type Scan[T any] struct {
	Cmp func(a, b T) int
}

func (s Scan[T]) UpperBound(data []T, v T) int {
	for i, x := range data {
		if s.Cmp(x, v) > 0 {
			return i
		}
	}
	return len(data)
}

func (s Scan[T]) LowerBound(data []T, v T) int {
	for i, x := range data {
		if s.Cmp(x, v) >= 0 {
			return i
		}
	}
	return len(data)
}
