package partition

import (
	"slices"
	"testing"
)

// checkClassical asserts what the classical partition promises on any
// sorted data and pivots: a valid partition in which every record at or
// below a pivot — its duplicates included — lands at or below that
// pivot's destination, and every record above it beyond.
func checkClassical(t *testing.T, data, pg []int) {
	t.Helper()
	bounds := Classical(data, pg, cmpInt)
	if len(bounds) != len(pg)+2 {
		t.Fatalf("classical: %d bounds for %d pivots", len(bounds), len(pg))
	}
	if err := Validate(bounds, len(data)); err != nil {
		t.Fatalf("classical: %v", err)
	}
	for j, pv := range pg {
		for i, v := range data {
			if below := i < bounds[j+1]; below != (v <= pv) {
				t.Fatalf("classical: record %d (index %d) vs pivot %d: below its bound %d is %v", v, i, pv, bounds[j+1], below)
			}
		}
	}
}

// cutStripes cuts data into k contiguous pieces (k = kRaw%8 + 1) and
// sorts each: the shape of one rank's sorted runs, or of the ranks'
// sorted slabs. At k = 1 it is the whole data, sorted.
func cutStripes(data []int, kRaw uint8) [][]int {
	k := int(kRaw)%8 + 1
	stripes := make([][]int, k)
	for s := range stripes {
		stripes[s] = slices.Clone(data[s*len(data)/k : (s+1)*len(data)/k])
		slices.Sort(stripes[s])
	}
	return stripes
}

// checkStripes asserts what every skew-aware split promises across
// stripes: each stripe's bounds are a valid partition of it, and every
// record any stripe sends to destination j is <= every record any
// stripe sends to a later destination.
func checkStripes(t *testing.T, stripes [][]int, bounds [][]int) {
	t.Helper()
	below, seen := 0, false // the largest record sent to an earlier destination
	for dst := 0; dst < len(bounds[0])-1; dst++ {
		hi, any := 0, false
		for s, st := range stripes {
			if err := Validate(bounds[s], len(st)); err != nil {
				t.Fatalf("stripe %d: %v", s, err)
			}
			for _, v := range st[bounds[s][dst]:bounds[s][dst+1]] {
				if seen && v < below {
					t.Fatalf("stripe %d sends %d to destination %d, after %d went to an earlier one", s, v, dst, below)
				}
				hi, any = max(hi, v), true
			}
		}
		if any {
			below, seen = max(below, hi), true
		}
	}
}

// dupShares counts, per destination, the records equal to v that the
// stripes send it.
func dupShares(stripes [][]int, bounds [][]int, v int) []int {
	shares := make([]int, len(bounds[0])-1)
	for s, st := range stripes {
		for dst := range shares {
			for _, x := range st[bounds[s][dst]:bounds[s][dst+1]] {
				if x == v {
					shares[dst]++
				}
			}
		}
	}
	return shares
}

// FuzzFastPartition checks the fast skew-aware partition's invariants on
// arbitrary pivots and data cut into k sorted stripes: per stripe,
// boundaries monotone, full coverage, and value-consistency (everything
// strictly below a singleton pivot's range boundary really belongs
// there) — and the classical partition's on the same input; across
// stripes, destinations in value order, and each process of a
// replicated run taking its even share of the duplicates to within one
// record per stripe.
func FuzzFastPartition(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 3}, uint8(0))
	f.Add([]byte{5, 5, 5, 5, 5}, []byte{5, 5}, uint8(0))
	f.Add([]byte{}, []byte{1}, uint8(0))
	f.Add([]byte{5, 1, 5, 5, 9, 5, 5, 2, 5}, []byte{5, 5, 5}, uint8(2))
	f.Fuzz(func(t *testing.T, rawData, rawPg []byte, kRaw uint8) {
		data := make([]int, len(rawData))
		for i, b := range rawData {
			data[i] = int(b) % 16
		}
		stripes := cutStripes(data, kRaw)
		if len(rawPg) > 32 {
			rawPg = rawPg[:32]
		}
		pg := make([]int, len(rawPg))
		for i, b := range rawPg {
			pg[i] = int(b) % 16
		}
		slices.Sort(pg)

		runs := Runs(pg, cmpInt)
		inRun := make([]bool, len(pg))
		for _, r := range runs {
			for i := r.Start; i < r.Start+r.Len; i++ {
				inRun[i] = true
			}
		}
		bounds := make([][]int, len(stripes))
		for s, st := range stripes {
			checkClassical(t, st, pg)
			bounds[s] = Fast(st, pg, Binary[int]{cmpInt}, cmpInt)
			if len(bounds[s]) != len(pg)+2 {
				t.Fatalf("bounds length %d", len(bounds[s]))
			}
			// Value consistency: records below bounds[j+1] must be <=
			// pg[j] unless pg[j] is part of a duplicated run being split.
			for j, pv := range pg {
				if inRun[j] {
					continue
				}
				for _, v := range st[:bounds[s][j+1]] {
					if cmpInt(v, pv) > 0 {
						t.Fatalf("record %d above pivot %d leaked below its boundary", v, pv)
					}
				}
			}
		}
		checkStripes(t, stripes, bounds)
		for _, r := range runs {
			shares := dupShares(stripes, bounds, pg[r.Start])
			span := 0
			for _, c := range shares {
				span += c
			}
			for g := range r.Len {
				if share := shares[r.Start+g]; abs(share*r.Len-span) > len(stripes)*r.Len {
					t.Fatalf("process %d of a run of %d takes %d of %d duplicates over %d stripes", g, r.Len, share, span, len(stripes))
				}
			}
		}
	})
}

// FuzzStablePartition checks the stable rule over one rank's k sorted
// stripes, placed the way the out-of-core sort places its runs: in a
// world of ranks with this rank's duplicate profile, its duplicates
// follow those of the ranks before it, and each stripe's follow the
// previous stripe's. Beyond the shared invariants, the duplicates of a
// replicated value go to non-decreasing destinations in (stripe,
// position) order — the stability — and at k = 1 the split is exactly
// Stable's.
func FuzzStablePartition(f *testing.F) {
	f.Add([]byte{5, 5, 5, 1, 2}, []byte{5, 5}, uint8(0), uint8(3), uint8(0))
	f.Add([]byte{5, 5, 1, 5, 5, 2, 5, 5}, []byte{5, 5, 5}, uint8(1), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, rawData, rawPg []byte, rankRaw, worldRaw, kRaw uint8) {
		data := make([]int, len(rawData))
		for i, b := range rawData {
			data[i] = int(b) % 8
		}
		stripes := cutStripes(data, kRaw)
		if len(rawPg) > 16 {
			rawPg = rawPg[:16]
		}
		pg := make([]int, len(rawPg))
		for i, b := range rawPg {
			pg[i] = int(b) % 8
		}
		slices.Sort(pg)

		world := int(worldRaw)%8 + 1
		rank := int(rankRaw) % world
		loc := Binary[int]{cmpInt}
		runs := Runs(pg, cmpInt)
		lbs, ubs := make([][]int, len(stripes)), make([][]int, len(stripes))
		local := make([]int64, len(runs))
		for s, st := range stripes {
			lbs[s], ubs[s] = Locate(st, pg, loc, cmpInt)
			for k, r := range runs {
				local[k] += int64(ubs[s][r.Start] - lbs[s][r.Start])
			}
		}
		counts := make([][]int64, len(runs))
		dups := make([]Dups, len(runs))
		for k := range counts {
			counts[k] = make([]int64, world)
			for r := 0; r < world; r++ {
				counts[k][r] = local[k]
			}
			dups[k] = Dups{Start: int64(rank) * local[k], Total: int64(world) * local[k]}
		}
		bounds := make([][]int, len(stripes))
		for s, st := range stripes {
			bounds[s] = Split(runs, lbs[s], ubs[s], len(st), dups)
		}
		checkStripes(t, stripes, bounds)
		if len(stripes) == 1 {
			want, err := Stable(stripes[0], pg, loc, cmpInt, rank, counts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bounds[0], want) {
				t.Fatalf("one stripe split %v, Stable %v", bounds[0], want)
			}
		}
		for _, r := range runs {
			v, last := pg[r.Start], 0
			for s, st := range stripes {
				for i, x := range st {
					if x != v {
						continue
					}
					end, _ := slices.BinarySearch(bounds[s], i+1) // the first bound past i ends i's destination
					if end-1 < last {
						t.Fatalf("stripe %d position %d goes to destination %d, after %d", s, i, end-1, last)
					}
					last = end - 1
				}
			}
		}
	})
}

func abs(x int) int { return max(x, -x) }
