package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/metrics"
)

// maxRDFA is the load bound of the paper's Theorem 1: no rank may hold
// more than 4N/p records. A sort that exceeds it has failed.
const maxRDFA = 4.0

// checksum identifies a multiset of records independently of their
// order: the count, and the sum and xor of a 64-bit hash of each
// record's encoded bytes.
type checksum struct {
	n        int64
	sum, xor uint64
}

func (c *checksum) add(h uint64) {
	c.n++
	c.sum += h
	c.xor ^= h
}

func (c *checksum) merge(o checksum) {
	c.n += o.n
	c.sum += o.sum
	c.xor ^= o.xor
}

// hashBytes mixes a record's wire bytes into 64 bits, a word at a time.
func hashBytes(b []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(b)) * m
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
		h ^= h >> 29
		b = b[8:]
	}
	for _, x := range b {
		h = (h ^ uint64(x)) * m
	}
	return h ^ h>>32
}

// sumRecords is the checksum of recs in any order.
func sumRecords[T any](recs []T, cd codec.Codec[T]) checksum {
	var c checksum
	buf := make([]byte, cd.Size())
	for _, r := range recs {
		cd.Marshal(buf, r)
		c.add(hashBytes(buf))
	}
	return c
}

// partial is what one rank learns about its own block of the output.
// The ranks check their blocks in parallel; combine joins them.
type partial[T any] struct {
	checksum
	first, last T
	err         error
}

// checkPart checks that out is sorted by cmp and, when order is given,
// that records with equal keys keep their input order: order maps a
// record to its position in the input.
func checkPart[T any](out []T, cd codec.Codec[T], cmp func(a, b T) int, order func(T) uint64) partial[T] {
	var p partial[T]
	if len(out) == 0 {
		return p
	}
	p.first, p.last = out[0], out[len(out)-1]
	buf := make([]byte, cd.Size())
	for i, r := range out {
		cd.Marshal(buf, r)
		p.add(hashBytes(buf))
		if i == 0 || p.err != nil {
			continue
		}
		if err := checkPair(out[i-1], r, cmp, order); err != nil {
			p.err = fmt.Errorf("%w at record %d", err, i)
		}
	}
	return p
}

var (
	errNotSorted = errors.New("not sorted")
	errNotStable = errors.New("not stable (equal keys left input order)")
)

// checkPair checks two neighbouring records of the output.
func checkPair[T any](prev, cur T, cmp func(a, b T) int, order func(T) uint64) error {
	switch c := cmp(prev, cur); {
	case c > 0:
		return errNotSorted
	case c == 0 && order != nil && order(prev) >= order(cur):
		return errNotStable
	}
	return nil
}

// combine joins the ranks' partials: each block sorted, blocks sorted
// across ranks, the output the same multiset as the input, and the
// largest block within the load bound. It returns the measured RDFA.
func combine[T any](parts []partial[T], want checksum, cmp func(a, b T) int, order func(T) uint64) (float64, error) {
	var got checksum
	loads := make([]int, len(parts))
	prev := -1
	for r, p := range parts {
		if p.err != nil {
			return 0, fmt.Errorf("rank %d: %w", r, p.err)
		}
		got.merge(p.checksum)
		loads[r] = int(p.n)
		if p.n == 0 {
			continue
		}
		if prev >= 0 {
			if err := checkPair(parts[prev].last, p.first, cmp, order); err != nil {
				return 0, fmt.Errorf("%w between ranks %d and %d", err, prev, r)
			}
		}
		prev = r
	}
	if got.n != want.n {
		return 0, fmt.Errorf("output holds %d records, input %d", got.n, want.n)
	}
	if got != want {
		return 0, fmt.Errorf("output is not a permutation of the input (checksum differs)")
	}
	rdfa := metrics.RDFA(loads)
	if rdfa > maxRDFA {
		return rdfa, fmt.Errorf("rdfa %.3f exceeds the %.1f load bound", rdfa, maxRDFA)
	}
	return rdfa, nil
}

// verifyOutputs checks a whole sort's output, one block per rank.
func verifyOutputs[T any](outs [][]T, want checksum, cd codec.Codec[T], cmp func(a, b T) int, order func(T) uint64) (float64, error) {
	parts := make([]partial[T], len(outs))
	for r, out := range outs {
		parts[r] = checkPart(out, cd, cmp, order)
	}
	return combine(parts, want, cmp, order)
}
