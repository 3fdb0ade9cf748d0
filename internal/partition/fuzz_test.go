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

// FuzzFastPartition checks the fast skew-aware partition's invariants on
// arbitrary sorted data and pivots: boundaries monotone, full coverage,
// and value-consistency (everything strictly below a singleton pivot's
// range boundary really belongs there) — and the classical partition's
// on the same input.
func FuzzFastPartition(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 3})
	f.Add([]byte{5, 5, 5, 5, 5}, []byte{5, 5})
	f.Add([]byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, rawData, rawPg []byte) {
		data := make([]int, len(rawData))
		for i, b := range rawData {
			data[i] = int(b) % 16
		}
		slices.Sort(data)
		if len(rawPg) > 32 {
			rawPg = rawPg[:32]
		}
		pg := make([]int, len(rawPg))
		for i, b := range rawPg {
			pg[i] = int(b) % 16
		}
		slices.Sort(pg)

		checkClassical(t, data, pg)
		bounds := Fast(data, pg, Binary[int]{cmpInt}, cmpInt)
		if len(bounds) != len(pg)+2 {
			t.Fatalf("bounds length %d", len(bounds))
		}
		if err := Validate(bounds, len(data)); err != nil {
			t.Fatal(err)
		}
		// Value consistency: records below bounds[j+1] must be <= pg[j]
		// unless pg[j] is part of a duplicated run being split.
		runs := Runs(pg, cmpInt)
		inRun := make([]bool, len(pg))
		for _, r := range runs {
			for i := r.Start; i < r.Start+r.Len; i++ {
				inRun[i] = true
			}
		}
		for j, pv := range pg {
			if inRun[j] {
				continue
			}
			for _, v := range data[:bounds[j+1]] {
				if cmpInt(v, pv) > 0 {
					t.Fatalf("record %d above pivot %d leaked below its boundary", v, pv)
				}
			}
		}
	})
}

// FuzzStablePartition checks the stable partition against the same
// invariants using locally computed duplicate counts.
func FuzzStablePartition(f *testing.F) {
	f.Add([]byte{5, 5, 5, 1, 2}, []byte{5, 5}, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, rawData, rawPg []byte, rankRaw, worldRaw uint8) {
		data := make([]int, len(rawData))
		for i, b := range rawData {
			data[i] = int(b) % 8
		}
		slices.Sort(data)
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
		local := LocalDupCounts(data, pg, runs, loc)
		counts := make([][]int64, len(runs))
		for k := range counts {
			counts[k] = make([]int64, world)
			for r := 0; r < world; r++ {
				// Give every simulated rank the same local profile:
				// the partition only needs counts[k][rank] to match
				// reality; the rest shape the grouping.
				counts[k][r] = local[k]
			}
		}
		bounds, err := Stable(data, pg, loc, cmpInt, rank, counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(bounds, len(data)); err != nil {
			t.Fatal(err)
		}
	})
}
