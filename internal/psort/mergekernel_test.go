package psort

import (
	"math/rand"
	"slices"
	"testing"
)

// mergeIntoBranchy is the previous merge kernel, kept as the reference
// implementation: one unpredictable branch per element. The branchless
// kernel in MergeInto must match it output-for-output (including the
// take-a-on-ties stability rule) and beat it on random keys.
func mergeIntoBranchy[T any](dst, a, b []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(b[j], a[i]) < 0 {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

type pair struct {
	key, seq int
}

func cmpPair(a, b pair) int { return a.key - b.key }

// TestMergeKernelMatchesReference: the branchless kernel and the branchy
// reference produce identical output on every input shape — random,
// heavily duplicated (ties exercise the stability rule), disjoint
// ranges, and empty sides.
func TestMergeKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func(n, keyRange, seqBase int) []pair {
		out := make([]pair, n)
		for i := range out {
			out[i] = pair{key: rng.Intn(keyRange + 1), seq: seqBase + i}
		}
		slices.SortStableFunc(out, cmpPair)
		return out
	}
	cases := []struct{ na, nb, keys int }{
		{0, 0, 1}, {0, 5, 10}, {5, 0, 10},
		{1, 1, 1}, // guaranteed tie
		{100, 100, 5}, {100, 100, 1 << 20},
		{1000, 3, 50}, {3, 1000, 50},
		{4096, 4096, 7},
	}
	for _, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			a := gen(tc.na, tc.keys, 0)
			b := gen(tc.nb, tc.keys, 1<<20)
			want := make([]pair, tc.na+tc.nb)
			got := make([]pair, tc.na+tc.nb)
			mergeIntoBranchy(want, a, b, cmpPair)
			MergeInto(got, a, b, cmpPair)
			if !slices.Equal(want, got) {
				t.Fatalf("na=%d nb=%d keys=%d: branchless kernel diverges from reference",
					tc.na, tc.nb, tc.keys)
			}
			// a as the tail of dst, the way the overlapped exchange
			// grows its result from the back of one buffer.
			inPlace := make([]pair, tc.na+tc.nb)
			copy(inPlace[tc.nb:], a)
			MergeInto(inPlace, inPlace[tc.nb:], b, cmpPair)
			if !slices.Equal(want, inPlace) {
				t.Fatalf("na=%d nb=%d keys=%d: merging the tail of dst in place diverges from reference",
					tc.na, tc.nb, tc.keys)
			}
			// b as the tail of dst, the way the stable radix dispatch
			// joins a leaf that was comparison-sorted where it lay.
			copy(inPlace[tc.na:], b)
			MergeInto(inPlace, a, inPlace[tc.na:], cmpPair)
			if !slices.Equal(want, inPlace) {
				t.Fatalf("na=%d nb=%d keys=%d: merging b from the tail of dst diverges from reference",
					tc.na, tc.nb, tc.keys)
			}
			// MergeBack, apart and with b as the front of dst, the way
			// the overlapped exchange's first merge lands beside its run.
			back := make([]pair, tc.na+tc.nb)
			MergeBack(back, a, b, cmpPair)
			if !slices.Equal(want, back) {
				t.Fatalf("na=%d nb=%d keys=%d: MergeBack diverges from reference", tc.na, tc.nb, tc.keys)
			}
			clear(back)
			copy(back, b)
			MergeBack(back, a, back[:tc.nb], cmpPair)
			if !slices.Equal(want, back) {
				t.Fatalf("na=%d nb=%d keys=%d: MergeBack from the front of dst diverges from reference",
					tc.na, tc.nb, tc.keys)
			}
			// a as the front of dst, the way MergeRunsIn merges a pair
			// whose right run is the smaller.
			clear(back)
			copy(back, a)
			MergeBack(back, back[:tc.na], b, cmpPair)
			if !slices.Equal(want, back) {
				t.Fatalf("na=%d nb=%d keys=%d: MergeBack with a as the front of dst diverges from reference",
					tc.na, tc.nb, tc.keys)
			}
			// The seq fields double-check the tie rule directly: equal
			// keys must come a-side first, each side in its own order.
			for i := 1; i < len(got); i++ {
				if got[i-1].key == got[i].key && got[i-1].seq > got[i].seq {
					t.Fatalf("tie rule violated at %d: seq %d before %d",
						i, got[i-1].seq, got[i].seq)
				}
			}
		}
	}
}

// BenchmarkMergeKernel: the branchless kernel against the branchy
// reference on random uint64 keys — the workload where mispredicted
// branches dominate the branchy version.
func BenchmarkMergeKernel(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(13))
	mk := func() []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = rng.Uint64()
		}
		slices.Sort(s)
		return s
	}
	a, c := mk(), mk()
	dst := make([]uint64, 2*n)
	cmp := func(x, y uint64) int {
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	b.Run("branchless", func(b *testing.B) {
		b.SetBytes(16 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MergeInto(dst, a, c, cmp)
		}
	})
	b.Run("branchy", func(b *testing.B) {
		b.SetBytes(16 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mergeIntoBranchy(dst, a, c, cmp)
		}
	})
}
