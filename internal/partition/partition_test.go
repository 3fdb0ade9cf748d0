package partition

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

func sortedRandom(rng *rand.Rand, n, universe int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(universe)
	}
	slices.Sort(out)
	return out
}

func TestRuns(t *testing.T) {
	cases := []struct {
		pg   []int
		want []PivotRun
	}{
		{nil, nil},
		{[]int{1, 2, 3}, nil},
		{[]int{1, 1, 2}, []PivotRun{{0, 2}}},
		{[]int{1, 2, 2, 2, 3, 3}, []PivotRun{{1, 3}, {4, 2}}},
		{[]int{5, 5, 5, 5}, []PivotRun{{0, 4}}},
	}
	for _, c := range cases {
		got := Runs(c.pg, cmpInt)
		if !slices.Equal(got, c.want) {
			t.Errorf("Runs(%v) = %v, want %v", c.pg, got, c.want)
		}
	}
}

func TestReplicatedMatchesRuns(t *testing.T) {
	// The faithful Fig. 3 port and the batched run scan must agree.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pg := sortedRandom(rng, rng.Intn(12), 4)
		runs := Runs(pg, cmpInt)
		inRun := make(map[int]PivotRun)
		for _, r := range runs {
			for i := r.Start; i < r.Start+r.Len; i++ {
				inRun[i] = r
			}
		}
		for i := range pg {
			fr, rs, rr, ppvIdx := Replicated(pg, i, cmpInt)
			r, dup := inRun[i]
			if fr != dup {
				t.Fatalf("pg=%v i=%d: fr=%v dup=%v", pg, i, fr, dup)
			}
			if !dup {
				continue
			}
			if rs != r.Len {
				t.Fatalf("pg=%v i=%d: rs=%d want %d", pg, i, rs, r.Len)
			}
			if rr != i-r.Start {
				t.Fatalf("pg=%v i=%d: rr=%d want %d", pg, i, rr, i-r.Start)
			}
			if ppvIdx != r.Start-1 {
				t.Fatalf("pg=%v i=%d: ppvIdx=%d want %d", pg, i, ppvIdx, r.Start-1)
			}
		}
	}
}

func TestFastNoDuplicatePivots(t *testing.T) {
	data := []int{1, 2, 3, 4, 5, 6, 7, 8}
	pg := []int{2, 4, 6}
	bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
	want := []int{0, 2, 4, 6, 8}
	if !slices.Equal(bounds, want) {
		t.Fatalf("got %v want %v", bounds, want)
	}
}

func TestFastSplitsDuplicates(t *testing.T) {
	// 12 copies of 5 shared by pivots 1 and 2 (both == 5): processes
	// 1 and 2 each get half the duplicate span.
	data := []int{1, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 9, 9}
	pg := []int{5, 5, 8}
	bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
	if err := Validate(bounds, len(data)); err != nil {
		t.Fatal(err)
	}
	// Duplicate span is [2, 14): split at 2+6=8 and 14.
	want := []int{0, 8, 14, 14, 16}
	if !slices.Equal(bounds, want) {
		t.Fatalf("got %v want %v", bounds, want)
	}
}

func TestFastRunAtPivotZero(t *testing.T) {
	// Duplicated pivot run starting at index 0: values below the
	// duplicate value stay with process 0.
	data := []int{0, 1, 3, 3, 3, 3, 7}
	pg := []int{3, 3, 5}
	bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
	if err := Validate(bounds, len(data)); err != nil {
		t.Fatal(err)
	}
	// dup span [2,6): split at 2+2=4 (process 0 also keeps 0,1) and 6.
	// Pivot 5 is a singleton: process 2's range (3,5] holds nothing,
	// so its boundary stays at 6 and process 3 takes the 7.
	want := []int{0, 4, 6, 6, 7}
	if !slices.Equal(bounds, want) {
		t.Fatalf("got %v want %v", bounds, want)
	}
}

func TestFastIntermediateValuesStayWithFirstProcess(t *testing.T) {
	// Values strictly between the previous pivot (2) and the
	// duplicated pivot (5) must all go to the run's first process, or
	// global sortedness breaks.
	data := []int{1, 3, 4, 5, 5, 5, 5, 9}
	pg := []int{2, 5, 5}
	bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
	if err := Validate(bounds, len(data)); err != nil {
		t.Fatal(err)
	}
	// P0: <=2 -> [0,1). P1: 3,4 plus half of the four 5s -> [1,5).
	// P2: remaining 5s -> [5,7). P3: rest -> [7,8).
	want := []int{0, 1, 5, 7, 8}
	if !slices.Equal(bounds, want) {
		t.Fatalf("got %v want %v", bounds, want)
	}
}

func TestFastAllPivotsEqual(t *testing.T) {
	data := []int{7, 7, 7, 7, 7, 7, 7, 7}
	pg := []int{7, 7, 7}
	bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
	if err := Validate(bounds, len(data)); err != nil {
		t.Fatal(err)
	}
	// 8 records, 4 pivot-sharers (3 pivots + the tail) — the three
	// pivot processes split [0,8) at 8*k/3... rs=3 so splits at
	// floor(8/3)=2, floor(16/3)=5, 8.
	want := []int{0, 2, 5, 8, 8}
	if !slices.Equal(bounds, want) {
		t.Fatalf("got %v want %v", bounds, want)
	}
}

func TestFastValueAbsentLocally(t *testing.T) {
	// The duplicated pivot value has no local records at all.
	data := []int{1, 2, 8, 9}
	pg := []int{5, 5, 7}
	bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
	if err := Validate(bounds, len(data)); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 2, 2, 4}
	if !slices.Equal(bounds, want) {
		t.Fatalf("got %v want %v", bounds, want)
	}
}

// fastLoadsGlobal runs the fast partition on every rank's data and
// returns the per-destination totals.
func fastLoadsGlobal(t *testing.T, ranks [][]int, pg []int) []int {
	t.Helper()
	p := len(pg) + 1
	loads := make([]int, p)
	for _, data := range ranks {
		bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
		if err := Validate(bounds, len(data)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < p; j++ {
			loads[j] += bounds[j+1] - bounds[j]
		}
	}
	return loads
}

func TestFastLoadBoundTheorem1(t *testing.T) {
	// Theorem 1: with skew-aware partitioning the max per-process load
	// is O(4N/p) even when the data is one giant duplicate cluster.
	rng := rand.New(rand.NewSource(2))
	const p, perRank = 8, 4000
	workloads := map[string]func() int{
		"allEqual": func() int { return 7 },
		"twoValue": func() int { return []int{3, 9}[rng.Intn(2)] },
		"zipf":     func() int { z := rand.NewZipf(rng, 2.1, 1, 50); return int(z.Uint64()) },
	}
	for name, gen := range workloads {
		ranks := make([][]int, p)
		for r := range ranks {
			data := make([]int, perRank)
			for i := range data {
				data[i] = gen()
			}
			slices.Sort(data)
			ranks[r] = data
		}
		// Regular sampling: p-1 local pivots per rank, pooled, then
		// p-1 global pivots at stride p.
		var pool []int
		for _, data := range ranks {
			stride := len(data) / p
			for i := 1; i < p; i++ {
				pool = append(pool, data[i*stride])
			}
		}
		slices.Sort(pool)
		var pg []int
		for i := 1; i < p; i++ {
			pg = append(pg, pool[i*p-1])
		}
		loads := fastLoadsGlobal(t, ranks, pg)
		n := p * perRank
		bound := 4*n/p + p // 4N/p plus integer-division slack
		for j, l := range loads {
			if l > bound {
				t.Errorf("%s: process %d load %d exceeds 4N/p bound %d (loads %v)",
					name, j, l, bound, loads)
			}
		}
	}
}

func TestStableMatchesFastTotals(t *testing.T) {
	// Fast and stable split the same duplicate span; the union of data
	// assigned to the run's processes must be identical even though
	// the per-rank cuts differ.
	rng := rand.New(rand.NewSource(3))
	const p = 4
	ranks := make([][]int, p)
	for r := range ranks {
		data := make([]int, 1000)
		for i := range data {
			if rng.Float64() < 0.7 {
				data[i] = 5
			} else {
				data[i] = rng.Intn(10)
			}
		}
		slices.Sort(data)
		ranks[r] = data
	}
	pg := []int{5, 5, 5}
	runs := Runs(pg, cmpInt)
	counts := make([][]int64, len(runs))
	for k := range counts {
		counts[k] = make([]int64, p)
		for r, data := range ranks {
			counts[k][r] = LocalDupCounts(data, pg, runs, Binary[int]{cmpInt})[0]
		}
	}
	fastLoads := make([]int, p)
	stableLoads := make([]int, p)
	stableDupLoads := make([]int, p) // records equal to the dup value only
	bin := Binary[int]{cmpInt}
	for r, data := range ranks {
		fb := Fast(data, pg, bin, cmpInt)
		sb, err := Stable(data, pg, bin, cmpInt, r, counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(sb, len(data)); err != nil {
			t.Fatal(err)
		}
		lbv := bin.LowerBound(data, 5)
		pd := bin.UpperBound(data, 5)
		for j := 0; j < p; j++ {
			fastLoads[j] += fb[j+1] - fb[j]
			stableLoads[j] += sb[j+1] - sb[j]
			lo, hi := sb[j], sb[j+1]
			if lo < lbv {
				lo = lbv
			}
			if hi > pd {
				hi = pd
			}
			if hi > lo {
				stableDupLoads[j] += hi - lo
			}
		}
	}
	var ft, st int
	for j := 0; j < p; j++ {
		ft += fastLoads[j]
		st += stableLoads[j]
	}
	if ft != st {
		t.Fatalf("totals differ: fast %d stable %d", ft, st)
	}
	// The stable grouping hands each designated process one equal
	// group of the duplicated value's records (the run's first process
	// additionally holds the values below it, which is why we measure
	// duplicates only here).
	total := int64(0)
	for _, c := range counts[0] {
		total += c
	}
	sa := int((total + 2) / 3)
	for j := 0; j < 3; j++ {
		if stableDupLoads[j] > sa {
			t.Errorf("stable designated process %d duplicate load %d above group size %d (dup loads %v)",
				j, stableDupLoads[j], sa, stableDupLoads)
		}
	}
}

func TestStableGroupingIsRankContiguous(t *testing.T) {
	// Duplicates are grouped by global (rank, position): a later rank
	// can never contribute to an earlier group than an earlier rank's
	// later records. We verify the per-rank boundary cuts are
	// monotone in rank: the group index where rank r's duplicates end
	// is non-decreasing.
	pg := []int{4, 4}
	runs := Runs(pg, cmpInt)
	ranks := [][]int{
		{4, 4, 4, 4},
		{4, 4},
		{4, 4, 4, 4, 4, 4},
	}
	counts := [][]int64{{4, 2, 6}}
	_ = runs
	prevEndGroup := -1
	for r, data := range ranks {
		sb, err := Stable(data, pg, Binary[int]{cmpInt}, cmpInt, r, counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(sb, len(data)); err != nil {
			t.Fatal(err)
		}
		// Last group this rank contributes to.
		endGroup := -1
		for g := 0; g < 2; g++ {
			if sb[g+1]-sb[g] > 0 {
				endGroup = g
			}
		}
		if endGroup < prevEndGroup {
			t.Fatalf("rank %d ends at group %d before rank %d's group %d",
				r, endGroup, r-1, prevEndGroup)
		}
		prevEndGroup = endGroup
	}
}

func TestStableCountMismatchRejected(t *testing.T) {
	data := []int{4, 4, 4}
	pg := []int{4, 4}
	counts := [][]int64{{99}} // wrong count for rank 0
	if _, err := Stable(data, pg, Binary[int]{cmpInt}, cmpInt, 0, counts); err == nil {
		t.Fatal("expected count-mismatch error")
	}
	// Wrong number of count vectors.
	if _, err := Stable(data, pg, Binary[int]{cmpInt}, cmpInt, 0, nil); err == nil {
		t.Fatal("expected missing-counts error")
	}
}

func TestFastPropertyMonotoneAndComplete(t *testing.T) {
	f := func(rawData []uint8, rawPg []uint8) bool {
		data := make([]int, len(rawData))
		for i, v := range rawData {
			data[i] = int(v) % 16
		}
		slices.Sort(data)
		pg := make([]int, len(rawPg)%9)
		for i := range pg {
			pg[i] = int(rawPg[i]) % 16
		}
		slices.Sort(pg)
		bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
		if len(bounds) != len(pg)+2 {
			return false
		}
		return Validate(bounds, len(data)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCounts(t *testing.T) {
	bounds := []int{0, 2, 2, 7}
	if got := Counts(bounds); !slices.Equal(got, []int{2, 0, 5}) {
		t.Fatalf("got %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]int{0, 1, 3}, 3); err != nil {
		t.Fatal(err)
	}
	if err := Validate([]int{0, 2, 1, 3}, 3); err == nil {
		t.Fatal("non-monotone accepted")
	}
	if err := Validate([]int{0, 3}, 4); err == nil {
		t.Fatal("short coverage accepted")
	}
	if err := Validate([]int{0}, 0); err == nil {
		t.Fatal("too-short bounds accepted")
	}
}

// TestClassical: the plain upper-bound partition is valid on every
// input and sends all duplicates of a pivot to the pivot's destination.
func TestClassical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		data, pg []int
		want     []int
	}{
		{"distinct", []int{1, 2, 3, 4, 5, 6}, []int{2, 4}, []int{0, 2, 4, 6}},
		{"duplicates stay together", []int{1, 5, 5, 5, 5, 9}, []int{5, 5}, []int{0, 5, 5, 6}},
		{"all equal", []int{7, 7, 7, 7}, []int{7, 7, 7}, []int{0, 4, 4, 4, 4}},
		{"empty input", nil, []int{1, 2}, []int{0, 0, 0, 0}},
		{"no pivots", []int{1, 3}, nil, []int{0, 2}},
		{"pivots outside the data", []int{4, 5}, []int{1, 9}, []int{0, 0, 2, 2}},
		{"unsorted pivots are clamped", []int{1, 2, 3, 4}, []int{3, 1}, []int{0, 3, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Classical(tc.data, tc.pg, cmpInt)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("bounds %v, want %v", got, tc.want)
			}
			if err := Validate(got, len(tc.data)); err != nil {
				t.Fatal(err)
			}
			if slices.IsSorted(tc.pg) && slices.IsSorted(tc.data) {
				checkClassical(t, tc.data, tc.pg)
			}
		})
	}
}
