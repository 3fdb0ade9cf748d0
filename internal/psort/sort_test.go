package psort

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// kv is a key/payload pair for stability checks; only K is compared.
type kv struct {
	K int
	V int // original position, invisible to the comparator
}

func cmpKV(a, b kv) int { return cmpInt(a.K, b.K) }

func randomInts(rng *rand.Rand, n, universe int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(universe)
	}
	return out
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 100, 1000, 10000} {
		for _, universe := range []int{1, 2, 10, 1 << 30} {
			data := randomInts(rng, n, universe)
			want := append([]int(nil), data...)
			slices.Sort(want)
			Sort(data, cmpInt)
			if !slices.Equal(data, want) {
				t.Fatalf("Sort n=%d universe=%d: mismatch", n, universe)
			}
		}
	}
}

func TestSortAdversarialPatterns(t *testing.T) {
	patterns := map[string]func(n int) []int{
		"sorted": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		},
		"reversed": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = n - i
			}
			return out
		},
		"allequal": func(n int) []int { return make([]int, n) },
		"sawtooth": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i % 7
			}
			return out
		},
		"organpipe": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				if i < n/2 {
					out[i] = i
				} else {
					out[i] = n - i
				}
			}
			return out
		},
	}
	for name, gen := range patterns {
		for _, n := range []int{5, 64, 1000, 4096} {
			data := gen(n)
			want := append([]int(nil), data...)
			slices.Sort(want)
			Sort(data, cmpInt)
			if !slices.Equal(data, want) {
				t.Errorf("pattern %s n=%d: Sort mismatch", name, n)
			}
		}
	}
}

func TestStableSortIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 10, 100, 5000} {
		data := make([]kv, n)
		for i := range data {
			data[i] = kv{K: rng.Intn(7), V: i}
		}
		StableSort(data, cmpKV)
		for i := 1; i < n; i++ {
			if data[i-1].K > data[i].K {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
			if data[i-1].K == data[i].K && data[i-1].V > data[i].V {
				t.Fatalf("n=%d: stability violated at %d: %v before %v", n, i, data[i-1], data[i])
			}
		}
	}
}

func TestStableSortBufReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scratch := make([]int, 2048)
	for trial := 0; trial < 10; trial++ {
		data := randomInts(rng, 2000, 50)
		want := append([]int(nil), data...)
		slices.Sort(want)
		StableSortBuf(data, scratch, cmpInt)
		if !slices.Equal(data, want) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
	// Undersized scratch must still work (internal reallocation).
	data := randomInts(rng, 100, 5)
	want := append([]int(nil), data...)
	slices.Sort(want)
	StableSortBuf(data, make([]int, 3), cmpInt)
	if !slices.Equal(data, want) {
		t.Fatal("undersized scratch: mismatch")
	}
}

func TestSortPropertyQuick(t *testing.T) {
	f := func(data []int16) bool {
		ints := make([]int, len(data))
		for i, v := range data {
			ints[i] = int(v)
		}
		want := append([]int(nil), ints...)
		slices.Sort(want)
		Sort(ints, cmpInt)
		return slices.Equal(ints, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStableSortPropertyQuick(t *testing.T) {
	f := func(keys []uint8) bool {
		data := make([]kv, len(keys))
		for i, k := range keys {
			data[i] = kv{K: int(k), V: i}
		}
		StableSort(data, cmpKV)
		for i := 1; i < len(data); i++ {
			if data[i-1].K > data[i].K {
				return false
			}
			if data[i-1].K == data[i].K && data[i-1].V > data[i].V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mergeTwo merges two sorted runs into a new slice with MergeInto.
func mergeTwo[T any](a, b []T, cmp func(x, y T) int) []T {
	dst := make([]T, len(a)+len(b))
	MergeInto(dst, a, b, cmp)
	return dst
}

// TestMergeTwo: fixed cases of the two-way merge, nil sides included.
// TestMergeKernelMatchesReference covers random shapes and merging in
// place.
func TestMergeTwo(t *testing.T) {
	a := []int{1, 3, 3, 5}
	b := []int{2, 3, 4}
	got := mergeTwo(a, b, cmpInt)
	want := []int{1, 2, 3, 3, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if got := mergeTwo(nil, b, cmpInt); !slices.Equal(got, b) {
		t.Fatalf("nil+b: got %v", got)
	}
	if got := mergeTwo(a, nil, cmpInt); !slices.Equal(got, a) {
		t.Fatalf("a+nil: got %v", got)
	}
}

func TestMergeTwoStability(t *testing.T) {
	a := []kv{{1, 0}, {2, 1}, {2, 2}}
	b := []kv{{1, 10}, {2, 11}}
	got := mergeTwo(a, b, cmpKV)
	// Ties must come from a first.
	want := []kv{{1, 0}, {1, 10}, {2, 1}, {2, 2}, {2, 11}}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]int{}, cmpInt) || !IsSorted([]int{1}, cmpInt) || !IsSorted([]int{1, 1, 2}, cmpInt) {
		t.Fatal("sorted inputs misreported")
	}
	if IsSorted([]int{2, 1}, cmpInt) {
		t.Fatal("unsorted input misreported")
	}
}

func BenchmarkSortRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	base := randomInts(rng, 1<<16, 1<<30)
	data := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, base)
		Sort(data, cmpInt)
	}
}

func BenchmarkStableSortRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	base := randomInts(rng, 1<<16, 1<<30)
	data := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, base)
		StableSort(data, cmpInt)
	}
}
