package psort

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
)

// bytesToInts turns a fuzzer byte string into small ints (2 bytes per
// value, biased to a small universe so duplicates are common).
func bytesToInts(data []byte) []int {
	out := make([]int, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		out = append(out, int(binary.LittleEndian.Uint16(data[i:]))%97)
	}
	return out
}

func FuzzSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 0, 3, 0})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		ints := bytesToInts(data)
		want := append([]int(nil), ints...)
		slices.Sort(want)
		Sort(ints, cmpInt)
		if !slices.Equal(ints, want) {
			t.Fatalf("Sort mismatch on %v", ints)
		}
	})
}

func FuzzStableSort(f *testing.F) {
	f.Add([]byte{5, 0, 5, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := bytesToInts(data)
		recs := make([]kv, len(keys))
		for i, k := range keys {
			recs[i] = kv{K: k, V: i}
		}
		StableSort(recs, cmpKV)
		for i := 1; i < len(recs); i++ {
			if recs[i-1].K > recs[i].K {
				t.Fatal("not sorted")
			}
			if recs[i-1].K == recs[i].K && recs[i-1].V > recs[i].V {
				t.Fatal("stability violated")
			}
		}
	})
}

func FuzzNaturalMergeSort(f *testing.F) {
	f.Add([]byte{3, 0, 2, 0, 1, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ints := bytesToInts(data)
		want := append([]int(nil), ints...)
		slices.Sort(want)
		NaturalMergeSort(ints, cmpInt)
		if !slices.Equal(ints, want) {
			t.Fatal("NaturalMergeSort mismatch")
		}
	})
}

// FuzzMergeRuns: k ∈ [0, 70] runs of fuzzed lengths, empty ones
// included, lying next to each other. Records carry (key, run, pos) and
// keys repeat, so the merge must be slices.SortStableFunc by key — ties
// to the lower run, then the lower position — and KWayMerge over the
// same runs must agree with it, as must MergeRunsIn through a buffer
// drawn from MergeRunsNeed's records up to all of them. MergeRunsNeed
// is at most half the records.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{3, 1, 1, 2, 0, 2, 5, 5}, uint8(3), uint8(1))
	f.Add([]byte{7, 0, 9, 9, 9, 1, 4, 2, 2, 0, 0, 30, 3, 3, 3, 3}, uint8(70), uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, k, extra uint8) {
		type rec struct{ key, run, pos int }
		byKey := func(a, b rec) int { return a.key - b.key }
		next := func() int {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return int(b)
		}
		lens := make([]int, int(k)%71)
		var in []rec
		var chunks [][]rec
		for r := range lens {
			keys := make([]int, next()%40)
			for i := range keys {
				keys[i] = next() % 16
			}
			slices.Sort(keys)
			for i, key := range keys {
				in = append(in, rec{key, r, i})
			}
			lens[r] = len(keys)
			chunks = append(chunks, in[len(in)-len(keys):])
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, byKey)
		got := MergeRuns(slices.Clone(in), make([]rec, len(in)), slices.Clone(lens), byKey)
		if !slices.Equal(got, want) {
			t.Fatalf("MergeRuns over %v: got %v, want %v", lens, got, want)
		}
		if kw := KWayMerge(chunks, byKey); !slices.Equal(kw, want) {
			t.Fatalf("KWayMerge over %v: got %v, want %v", lens, kw, want)
		}
		need := MergeRunsNeed(lens)
		if 2*need > len(in) {
			t.Fatalf("MergeRunsNeed over %v: %d records of %d", lens, need, len(in))
		}
		buf := make([]rec, need+int(extra)%(len(in)-need+1))
		inSlab := slices.Clone(in)
		MergeRunsIn(inSlab, buf, slices.Clone(lens), byKey)
		if !slices.Equal(inSlab, want) {
			t.Fatalf("MergeRunsIn over %v, %d-record buffer: got %v, want %v", lens, len(buf), inSlab, want)
		}
	})
}

func FuzzKWayMerge(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0}, []byte{2, 0, 4, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, a, b []byte, split uint8) {
		// Two fuzzed chunk sources, each pre-sorted, merged.
		c1 := bytesToInts(a)
		c2 := bytesToInts(b)
		slices.Sort(c1)
		slices.Sort(c2)
		// Optionally split c1 into two chunks at an arbitrary point to
		// vary the chunk count.
		chunks := [][]int{c2}
		if len(c1) > 0 {
			at := int(split) % (len(c1) + 1)
			chunks = append(chunks, c1[:at], c1[at:])
		}
		want := append(append([]int(nil), c1...), c2...)
		slices.Sort(want)
		got := KWayMerge(chunks, cmpInt)
		if !slices.Equal(got, want) {
			t.Fatal("KWayMerge mismatch")
		}
	})
}

// FuzzParallelMerge: up to 8 sorted chunks of fuzzed lengths over a
// small key universe, merged on 1–9 workers with each of stable and
// skewAware both ways. Records carry (key, chunk, pos): the output must
// be a sorted permutation of the input, equal to the stable sort when
// stable is set, with one busy time per segment — len(pg)+1 when the
// chunks are cut, one when a single worker or chunk merges them all.
func FuzzParallelMerge(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{2, 5, 5, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(7))
	f.Add([]byte{4, 9, 9, 9, 9, 1, 9, 6, 9, 9, 9, 9, 9, 9}, uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, w uint8) {
		type rec struct{ key, chunk, pos int }
		byKey := func(a, b rec) int { return a.key - b.key }
		next := func() int {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return int(b)
		}
		workers := int(w)%9 + 1
		var in []rec
		chunks := make([][]rec, next()%8+1)
		for ci := range chunks {
			keys := make([]int, next()%64)
			for i := range keys {
				keys[i] = next() % 16
			}
			slices.Sort(keys)
			for i, key := range keys {
				in = append(in, rec{key, ci, i})
			}
			chunks[ci] = in[len(in)-len(keys):]
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, byKey)
		segments := 1
		if len(in) == 0 {
			segments = 0
		} else if workers > 1 && len(chunks) > 1 {
			pg, _ := mergePivots(chunks, workers, byKey)
			segments = len(pg) + 1
		}
		for _, stable := range []bool{false, true} {
			for _, skewAware := range []bool{false, true} {
				got, busy := ParallelMerge(chunks, workers, stable, skewAware, byKey)
				if !slices.IsSortedFunc(got, byKey) {
					t.Fatalf("stable=%v skewAware=%v workers=%d: unsorted %v", stable, skewAware, workers, got)
				}
				if !stable {
					slices.SortStableFunc(got, func(a, b rec) int {
						return cmp.Or(a.key-b.key, a.chunk-b.chunk, a.pos-b.pos)
					})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("stable=%v skewAware=%v workers=%d: got %v, want %v", stable, skewAware, workers, got, want)
				}
				if len(busy) != segments {
					t.Fatalf("stable=%v skewAware=%v workers=%d: %d busy times, want %d", stable, skewAware, workers, len(busy), segments)
				}
			}
		}
	})
}
