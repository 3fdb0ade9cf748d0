package psort

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func sortedChunks(rng *rand.Rand, k, maxLen, universe int) [][]int {
	chunks := make([][]int, k)
	for i := range chunks {
		c := randomInts(rng, rng.Intn(maxLen+1), universe)
		slices.Sort(c)
		chunks[i] = c
	}
	return chunks
}

func flatten(chunks [][]int) []int {
	var out []int
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

func TestKWayMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, k := range []int{0, 1, 2, 3, 4, 7, 16, 64} {
		chunks := sortedChunks(rng, k, 200, 50)
		want := flatten(chunks)
		slices.Sort(want)
		got := KWayMerge(chunks, cmpInt)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: merge mismatch", k)
		}
	}
}

func TestKWayMergeEmptyChunks(t *testing.T) {
	chunks := [][]int{{}, {1, 2}, nil, {0, 3}, {}}
	got := KWayMerge(chunks, cmpInt)
	if !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
	if got := KWayMerge(nil, cmpInt); len(got) != 0 {
		t.Fatalf("nil chunks: got %v", got)
	}
}

func TestKWayMergeStability(t *testing.T) {
	// Equal keys must be emitted in chunk-index order, and in-chunk
	// order within a chunk.
	chunks := [][]kv{
		{{1, 0}, {2, 1}, {2, 2}},
		{{2, 10}, {3, 11}},
		{{1, 20}, {2, 21}, {2, 22}},
	}
	got := KWayMerge(chunks, cmpKV)
	want := []kv{{1, 0}, {1, 20}, {2, 1}, {2, 2}, {2, 10}, {2, 21}, {2, 22}, {3, 11}}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestKWayMergeStabilityProperty(t *testing.T) {
	// Property: merging chunks of tagged records preserves, for equal
	// keys, the (chunk, index) lexicographic order.
	f := func(raw [][]uint8) bool {
		chunks := make([][]kv, len(raw))
		for ci, r := range raw {
			c := make([]kv, len(r))
			for i, k := range r {
				c[i] = kv{K: int(k), V: ci*1_000_000 + i}
			}
			StableSort(c, cmpKV)
			chunks[ci] = c
		}
		got := KWayMerge(chunks, cmpKV)
		for i := 1; i < len(got); i++ {
			if got[i-1].K > got[i].K {
				return false
			}
			if got[i-1].K == got[i].K && got[i-1].V > got[i].V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKWayMergeSkewedChunkSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big := randomInts(rng, 10000, 100)
	slices.Sort(big)
	chunks := [][]int{big, {5}, {}, {50, 51}}
	want := flatten(chunks)
	slices.Sort(want)
	if got := KWayMerge(chunks, cmpInt); !slices.Equal(got, want) {
		t.Fatal("skewed chunk sizes: merge mismatch")
	}
}

// BenchmarkMergeRuns merges k sorted runs of 16-byte records (the PTF
// record's size), 256 Ki in all, lying next to each other as the
// exchange's receive slab holds them; ns/record is per record merged.
// The ping-pong arm is MergeRuns between two slabs, the in-slab arm
// MergeRunsIn through a buffer of MergeRunsNeed's records.
func BenchmarkMergeRuns(b *testing.B) {
	const total = 1 << 18
	for _, arm := range []string{"ping-pong", "in-slab"} {
		for _, k := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("%s/k=%d", arm, k), func(b *testing.B) {
				rng := rand.New(rand.NewSource(12))
				in := make([]kv, total)
				lens := make([]int, k)
				for r := range lens {
					lo, hi := r*total/k, (r+1)*total/k
					for i := lo; i < hi; i++ {
						in[i] = kv{K: rng.Intn(1 << 30), V: i}
					}
					slices.SortFunc(in[lo:hi], cmpKV)
					lens[r] = hi - lo
				}
				a, buf, runs := make([]kv, total), make([]kv, total), make([]int, k)
				if arm == "in-slab" {
					buf = buf[:MergeRunsNeed(lens)]
				}
				b.SetBytes(total * 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(a, in)
					copy(runs, lens)
					b.StartTimer()
					if arm == "in-slab" {
						MergeRunsIn(a, buf, runs, cmpKV)
					} else {
						MergeRuns(a, buf, runs, cmpKV)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/record")
			})
		}
	}
}
