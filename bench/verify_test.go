package main

import (
	"slices"
	"strings"
	"testing"

	"sdssort/internal/codec"
	"sdssort/internal/workload"
)

// TestVerifyDetects feeds the verifier outputs that are wrong in one way
// each and expects every one to be caught, and the intact one to pass.
func TestVerifyDetects(t *testing.T) {
	const n, p = 4000, 4
	cd := codec.PTFCodec{}
	order := ptfStableTCP.order
	in := workload.PTF(7, n)
	want := sumRecords(in, cd)
	sorted := slices.Clone(in)
	slices.SortStableFunc(sorted, codec.ComparePTF)
	if sorted[n/p-1].Score != 0 || sorted[n/p].Score != 0 {
		t.Fatal("test needs the duplicated score to straddle the first block boundary")
	}
	blocks := func(recs []codec.PTFRecord, parts int) [][]codec.PTFRecord {
		outs := make([][]codec.PTFRecord, parts)
		for r := range outs {
			outs[r] = slices.Clone(recs[r*len(recs)/parts : (r+1)*len(recs)/parts])
		}
		return outs
	}

	cases := []struct {
		name    string
		parts   int
		break_  func(outs [][]codec.PTFRecord) [][]codec.PTFRecord
		wantErr string
		// unordered drops the stability check, as on the other workloads.
		unordered bool
	}{
		{"intact", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord { return o }, "", false},
		{"corrupted payload", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			o[2][10].ObjID ^= 1 << 40
			return o
		}, "not a permutation", false},
		{"truncated", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			o[3] = o[3][:len(o[3])-1]
			return o
		}, "records", false},
		{"duplicated for dropped", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			o[3][5] = o[3][6]
			return o
		}, "not a permutation", true},
		{"unsorted within a rank", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			last := len(o[3]) - 1
			o[3][last], o[3][last-1] = o[3][last-1], o[3][last]
			return o
		}, "not sorted", false},
		{"unsorted across ranks", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			o[2], o[3] = o[3], o[2]
			return o
		}, "not sorted between ranks", false},
		{"destabilised within a rank", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			o[0][3], o[0][4] = o[0][4], o[0][3]
			return o
		}, "not stable", false},
		{"destabilised across ranks", p, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			last := len(o[0]) - 1
			o[0][last], o[1][0] = o[1][0], o[0][last]
			return o
		}, "input order) between ranks", false},
		{"load bound broken", 5, func(o [][]codec.PTFRecord) [][]codec.PTFRecord {
			o[0] = slices.Concat(o...)
			for r := 1; r < len(o); r++ {
				o[r] = nil
			}
			return o
		}, "load bound", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outs := tc.break_(blocks(sorted, tc.parts))
			order := order
			if tc.unordered {
				order = nil
			}
			_, err := verifyOutputs(outs, want, cd, codec.ComparePTF, order)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("intact output rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("not detected")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("detected as %q, want mention of %q", err, tc.wantErr)
			}
		})
	}

	// Without the stability check a swap of equal keys is a valid sort.
	outs := blocks(sorted, p)
	outs[0][3], outs[0][4] = outs[0][4], outs[0][3]
	if _, err := verifyOutputs(outs, want, cd, codec.ComparePTF, nil); err != nil {
		t.Fatalf("equal-key swap rejected on a non-stable workload: %v", err)
	}
}

func TestChecksumIgnoresOrder(t *testing.T) {
	in := workload.Uniform(3, 1000)
	a := sumRecords(in, codec.Float64{})
	slices.Reverse(in)
	if b := sumRecords(in, codec.Float64{}); a != b {
		t.Fatalf("checksum depends on order: %+v vs %+v", a, b)
	}
	in[0]++
	if b := sumRecords(in, codec.Float64{}); a == b {
		t.Fatal("checksum missed a changed record")
	}
}
