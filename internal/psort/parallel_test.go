package psort

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sdssort/internal/partition"
)

// zipfInts draws n values from a Zipf distribution, producing the
// heavily duplicated keys the skew-aware merge exists for.
func zipfInts(rng *rand.Rand, n int, s float64, imax uint64) []int {
	z := rand.NewZipf(rng, s, 1, imax)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

func TestParallelSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, cores := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 7, 100, 10000} {
			data := randomInts(rng, n, 1000)
			want := append([]int(nil), data...)
			slices.Sort(want)
			ParallelSort(data, cores, false, cmpInt)
			if !slices.Equal(data, want) {
				t.Fatalf("cores=%d n=%d: mismatch", cores, n)
			}
		}
	}
}

func TestParallelSortSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, s := range []float64{1.1, 2.0, 3.0} {
		data := zipfInts(rng, 20000, s, 1000)
		want := append([]int(nil), data...)
		slices.Sort(want)
		ParallelSort(data, 8, false, cmpInt)
		if !slices.Equal(data, want) {
			t.Fatalf("zipf s=%v: mismatch", s)
		}
	}
}

func TestParallelSortAllEqual(t *testing.T) {
	data := make([]int, 50000)
	ParallelSort(data, 8, false, cmpInt)
	for _, v := range data {
		if v != 0 {
			t.Fatal("corrupted data")
		}
	}
}

func TestParallelSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, universe := range []int{1, 3, 7, 100} {
		data := make([]kv, 30000)
		for i := range data {
			data[i] = kv{K: rng.Intn(universe), V: i}
		}
		ParallelSort(data, 8, true, cmpKV)
		for i := 1; i < len(data); i++ {
			if data[i-1].K > data[i].K {
				t.Fatalf("universe=%d: not sorted at %d", universe, i)
			}
			if data[i-1].K == data[i].K && data[i-1].V > data[i].V {
				t.Fatalf("universe=%d: stability violated at %d: %v then %v",
					universe, i, data[i-1], data[i])
			}
		}
	}
}

func TestSkewAwareParallelMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, workers := range []int{1, 2, 4, 8} {
		chunks := sortedChunks(rng, 6, 3000, 40)
		want := flatten(chunks)
		slices.Sort(want)
		got := SkewAwareParallelMerge(chunks, workers, false, cmpInt)
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: mismatch", workers)
		}
	}
}

func TestSkewAwareParallelMergeAllDuplicates(t *testing.T) {
	chunks := make([][]int, 4)
	for i := range chunks {
		c := make([]int, 5000)
		for j := range c {
			c[j] = 42
		}
		chunks[i] = c
	}
	got := SkewAwareParallelMerge(chunks, 4, false, cmpInt)
	if len(got) != 20000 {
		t.Fatalf("length %d", len(got))
	}
	for _, v := range got {
		if v != 42 {
			t.Fatal("corrupted value")
		}
	}
}

func TestSkewAwareParallelMergeStable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	chunks := make([][]kv, 5)
	id := 0
	for ci := range chunks {
		c := make([]kv, 4000)
		for i := range c {
			c[i] = kv{K: int(zipfOne(rng)), V: 0}
		}
		StableSort(c, cmpKV)
		// Tag with position after the chunk sort so (chunk, index)
		// reflects the order a stable merge must preserve.
		for i := range c {
			c[i].V = id
			id++
		}
		chunks[ci] = c
	}
	got := SkewAwareParallelMerge(chunks, 8, true, cmpKV)
	if len(got) != id {
		t.Fatalf("length %d want %d", len(got), id)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].K > got[i].K {
			t.Fatalf("not sorted at %d", i)
		}
		if got[i-1].K == got[i].K && got[i-1].V > got[i].V {
			t.Fatalf("stability violated at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

func zipfOne(rng *rand.Rand) uint64 {
	z := rand.NewZipf(rng, 1.5, 1, 20)
	return z.Uint64()
}

func TestSampleParallelMergeCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	chunks := sortedChunks(rng, 8, 2000, 30)
	want := flatten(chunks)
	slices.Sort(want)
	got, _ := ParallelMerge(chunks, 4, false, false, cmpInt)
	if !slices.Equal(got, want) {
		t.Fatal("sample merge mismatch")
	}
}

// TestParallelMergeBusy checks the busy times Fig. 6a and the ablation
// read: one per segment, never negative, and, on all-equal input, the
// imbalance the skew-aware partition exists to remove — the sample
// merge books every record to one segment, the skew-aware one spreads
// them.
func TestParallelMergeBusy(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	allEqual := make([][]int, 4)
	for i := range allEqual {
		allEqual[i] = make([]int, 5000)
	}
	inputs := []struct {
		chunks   [][]int
		allEqual bool
	}{{sortedChunks(rng, 6, 3000, 40), false}, {allEqual, true}}
	for _, skewAware := range []bool{true, false} {
		for _, stable := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				for _, in := range inputs {
					want := flatten(in.chunks)
					slices.Sort(want)
					got, busy := ParallelMerge(in.chunks, workers, stable, skewAware, cmpInt)
					if !slices.Equal(got, want) {
						t.Fatalf("skewAware=%v stable=%v workers=%d allEqual=%v: mismatch",
							skewAware, stable, workers, in.allEqual)
					}
					segments := 1
					if workers > 1 {
						pg, _ := mergePivots(in.chunks, workers, cmpInt)
						segments = len(pg) + 1
					}
					if len(busy) != segments {
						t.Fatalf("skewAware=%v stable=%v workers=%d: %d busy times, want %d",
							skewAware, stable, workers, len(busy), segments)
					}
					busySegments := 0
					for _, d := range busy {
						if d < 0 {
							t.Fatalf("negative busy time %v", d)
						}
						if d > 0 {
							busySegments++
						}
					}
					if workers == 1 || !in.allEqual {
						continue
					}
					if !skewAware && busySegments != 1 {
						t.Fatalf("stable=%v: sample merge spread all-equal records over %d segments, want 1", stable, busySegments)
					}
					if skewAware && busySegments < 2 {
						t.Fatalf("stable=%v: skew-aware merge left all-equal records in %d segment(s), want >= 2", stable, busySegments)
					}
				}
			}
		}
	}
}

// TestParallelMergeBalance: the merge's pivots are a regular sample of
// the chunks' regular samples, so fewer chunks than workers still cut
// the output into near-equal segments. Each case is chunks × records
// per chunk on workers, over distinct uniform keys — every pivot cuts
// at its upper bound, so the merged output's classical partition by the
// pivots is the merge's own. Eight chunks on eight workers is the
// control: with a chunk per worker, any sampling stride balances.
func TestParallelMergeBalance(t *testing.T) {
	for _, tc := range []struct{ chunks, per, workers int }{
		{2, 100_000, 8}, {3, 50_000, 8}, {4, 100_001, 24}, {8, 50_000, 8},
	} {
		n := tc.chunks * tc.per
		keys := rand.New(rand.NewSource(int64(n))).Perm(n)
		chunks := make([][]int, tc.chunks)
		for ci := range chunks {
			chunks[ci] = keys[ci*tc.per : (ci+1)*tc.per]
			slices.Sort(chunks[ci])
		}
		got, _ := ParallelMerge(chunks, tc.workers, false, true, cmpInt)
		if !slices.IsSorted(got) || len(got) != n {
			t.Fatalf("%+v: merge output not sorted", tc)
		}
		pg, _ := mergePivots(chunks, tc.workers, cmpInt)
		largest := slices.Max(partition.Counts(partition.Classical(got, pg, cmpInt)))
		if ratio := float64(largest) * float64(tc.workers) / float64(n); ratio > 1.25 {
			t.Errorf("%d chunks × %d on %d workers: largest segment %d is %.2f× its share n/workers",
				tc.chunks, tc.per, tc.workers, largest, ratio)
		}
	}
}

func TestParallelMergeProperty(t *testing.T) {
	f := func(raw [][]uint8, workersRaw uint8) bool {
		workers := int(workersRaw)%8 + 1
		chunks := make([][]int, len(raw))
		var all []int
		for ci, r := range raw {
			c := make([]int, len(r))
			for i, v := range r {
				c[i] = int(v)
			}
			slices.Sort(c)
			chunks[ci] = c
			all = append(all, c...)
		}
		slices.Sort(all)
		got := SkewAwareParallelMerge(chunks, workers, false, cmpInt)
		return slices.Equal(got, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	// Nearly sorted input goes down the natural-merge path.
	data := make([]int, 10000)
	for i := range data {
		data[i] = i
	}
	for s := 0; s < 20; s++ {
		i, j := rng.Intn(len(data)), rng.Intn(len(data))
		data[i], data[j] = data[j], data[i]
	}
	want := append([]int(nil), data...)
	slices.Sort(want)
	AdaptiveSort(data, 4, false, 16, cmpInt)
	if !slices.Equal(data, want) {
		t.Fatal("nearly sorted: mismatch")
	}

	// Random input goes down the parallel-sort path.
	data = randomInts(rng, 10000, 1<<30)
	want = append([]int(nil), data...)
	slices.Sort(want)
	AdaptiveSort(data, 4, false, 16, cmpInt)
	if !slices.Equal(data, want) {
		t.Fatal("random: mismatch")
	}
}

// TestSkewAwareBalancedLoads checks the point of the skew-aware merge:
// on heavily duplicated data the per-worker segment sizes stay near the
// fair share, whereas sample-based merging would send every duplicate to
// one worker. We observe balance indirectly through the partition the
// merge computes.
func TestSkewAwareBalancedLoads(t *testing.T) {
	// 4 chunks, 80% of records equal to 7.
	rng := rand.New(rand.NewSource(37))
	chunks := make([][]int, 4)
	for ci := range chunks {
		c := make([]int, 10000)
		for i := range c {
			if rng.Float64() < 0.8 {
				c[i] = 7
			} else {
				c[i] = rng.Intn(15)
			}
		}
		slices.Sort(c)
		chunks[ci] = c
	}
	got := SkewAwareParallelMerge(chunks, 4, false, cmpInt)
	want := flatten(chunks)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("merge mismatch")
	}
}
