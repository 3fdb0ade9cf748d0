package recordio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sdssort/internal/codec"
)

var f64 = codec.Float64{}

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := tempPath(t, "round.f64")
	recs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if err := WriteFile(path, f64, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, f64)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, recs) {
		t.Fatalf("got %v want %v", got, recs)
	}
	n, err := Count[float64](path, f64)
	if err != nil || n != int64(len(recs)) {
		t.Fatalf("count %d err %v", n, err)
	}
}

func TestEmptyFile(t *testing.T) {
	path := tempPath(t, "empty.f64")
	if err := WriteFile(path, f64, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, f64)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	path := tempPath(t, "trunc.f64")
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, f64); err == nil {
		t.Fatal("truncated file accepted")
	}
	if _, err := Count[float64](path, f64); err == nil {
		t.Fatal("Count accepted ragged file")
	}
}

func TestStreamingWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, codec.PTFCodec{})
	recs := make([]codec.PTFRecord, 100)
	rng := rand.New(rand.NewSource(1))
	for i := range recs {
		recs[i] = codec.PTFRecord{Score: rng.Float64(), ObjID: rng.Uint64()}
		if err := w.Write(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]codec.PTFRecord, len(recs)+1)
	n, err := ReadBlock(&buf, codec.PTFCodec{}, got, nil)
	if err != io.EOF || n != len(recs) {
		t.Fatalf("read %d of %d records, then %v; want io.EOF", n, len(recs), err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

// plainU64 is codec.Uint64 without the zero-copy declaration: it drives
// ReadBlock's decode through a wire buffer.
var plainU64 = codec.Funcs[uint64]{Width: 8, MarshalFn: codec.Uint64{}.Marshal, UnmarshFn: codec.Uint64{}.Unmarshal}

// TestReadBlock reads whole streams, short streams and ragged streams on
// both paths, the marshal one through wire buffers of one record up:
// n records and nil for a full block, io.EOF only at a record boundary,
// and a partial record an io.ErrUnexpectedEOF error.
func TestReadBlock(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5, 6, 7}
	wire := codec.EncodeSlice(codec.Uint64{}, nil, vals)
	for _, cd := range []codec.Codec[uint64]{codec.Uint64{}, plainU64} {
		for _, wireRecs := range []int{0, 1, 3, 8} {
			for _, tc := range []struct {
				src  []byte
				n    int // the block's length
				got  int
				want error
			}{
				{wire, 7, 7, nil},
				{wire, 4, 4, nil},
				{wire, 9, 7, io.EOF},
				{nil, 3, 0, io.EOF},
				{wire[:5*8+3], 9, 5, io.ErrUnexpectedEOF},
				{wire[:5], 2, 0, io.ErrUnexpectedEOF},
				{wire, 0, 0, nil},
			} {
				recs := make([]uint64, tc.n)
				got, err := ReadBlock(bytes.NewReader(tc.src), cd, recs, make([]byte, 8*wireRecs))
				if got != tc.got || !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
					t.Fatalf("%d bytes into %d records through %d wire records: %d records, %v; want %d, %v", len(tc.src), tc.n, wireRecs, got, err, tc.got, tc.want)
				}
				if !slices.Equal(recs[:got], vals[:got]) {
					t.Fatalf("%d bytes into %d records: read %v", len(tc.src), tc.n, recs[:got])
				}
			}
		}
	}
}

func TestReadShard(t *testing.T) {
	path := tempPath(t, "shard.f64")
	recs := make([]float64, 103) // deliberately not divisible
	for i := range recs {
		recs[i] = float64(i)
	}
	if err := WriteFile(path, f64, recs); err != nil {
		t.Fatal(err)
	}
	var reassembled []float64
	const parts = 4
	for r := 0; r < parts; r++ {
		shard, err := ReadShard(path, f64, r, parts)
		if err != nil {
			t.Fatal(err)
		}
		reassembled = append(reassembled, shard...)
	}
	if !slices.Equal(reassembled, recs) {
		t.Fatal("shards do not reassemble the file")
	}
	// Last shard absorbs the remainder.
	last, err := ReadShard(path, f64, parts-1, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 103-3*25 {
		t.Fatalf("last shard has %d records", len(last))
	}
}

// TestShardRangeTiles: for every total and shard count the ranges must
// tile [0, total) in rank order with no gap and no overlap — including
// fewer records than shards (all but the last shard empty), a remainder
// (absorbed by the last shard) and an empty file.
func TestShardRangeTiles(t *testing.T) {
	for _, tc := range []struct {
		total int64
		of    int
		last  int64 // size of the last shard
	}{
		{total: 0, of: 4, last: 0},
		{total: 3, of: 4, last: 3}, // total < p
		{total: 103, of: 4, last: 28},
		{total: 100, of: 4, last: 25},
		{total: 7, of: 1, last: 7},
		{total: 1<<40 + 5, of: 7, last: (1<<40+5)/7 + (1<<40+5)%7},
	} {
		next := int64(0)
		for r := 0; r < tc.of; r++ {
			lo, hi := ShardRange(tc.total, r, tc.of)
			if lo != next || hi < lo {
				t.Fatalf("total %d: shard %d of %d is [%d,%d), want it to start at %d", tc.total, r, tc.of, lo, hi, next)
			}
			if r < tc.of-1 && hi-lo != tc.total/int64(tc.of) {
				t.Fatalf("total %d: shard %d of %d holds %d records, want the equal share", tc.total, r, tc.of, hi-lo)
			}
			next = hi
		}
		if lo, hi := ShardRange(tc.total, tc.of-1, tc.of); next != tc.total || hi-lo != tc.last {
			t.Fatalf("total %d over %d shards: tiles end at %d, last shard holds %d (want %d)", tc.total, tc.of, next, hi-lo, tc.last)
		}
	}
}

func TestReadShardValidation(t *testing.T) {
	path := tempPath(t, "v.f64")
	if err := WriteFile(path, f64, []float64{1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{-1, 4}, {4, 4}, {0, 0}} {
		if _, err := ReadShard(path, f64, c[0], c[1]); err == nil {
			t.Fatalf("shard %v accepted", c)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, codec.Uint64{})
		if err := w.Write(vals...); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got := make([]uint64, len(vals))
		if n, err := ReadBlock(&buf, codec.Uint64{}, got, nil); err != nil || n != len(vals) {
			return false
		}
		return buf.Len() == 0 && slices.Equal(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVColumn(t *testing.T) {
	csvData := "name,score\na,0.5\nb,0.1\nc,0.9\n"
	got, err := ReadCSVColumnFrom(strings.NewReader(csvData), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []float64{0.5, 0.1, 0.9}) {
		t.Fatalf("got %v", got)
	}
	// No header.
	got, err = ReadCSVColumnFrom(strings.NewReader("1\n2\n3\n"), 0)
	if err != nil || !slices.Equal(got, []float64{1, 2, 3}) {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestReadCSVColumnErrors(t *testing.T) {
	if _, err := ReadCSVColumnFrom(strings.NewReader("a,b\n1\n"), 1); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := ReadCSVColumnFrom(strings.NewReader("1\nx\n"), 0); err == nil {
		t.Fatal("non-numeric body cell accepted")
	}
	if _, err := ReadCSVColumnFrom(strings.NewReader("1\n"), -1); err == nil {
		t.Fatal("negative column accepted")
	}
	// Empty input yields empty keys.
	got, err := ReadCSVColumnFrom(strings.NewReader(""), 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
	// File variant path handling.
	path := tempPath(t, "keys.csv")
	if err := os.WriteFile(path, []byte("v\n2.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadCSVColumn(path, 0)
	if err != nil || !slices.Equal(got, []float64{2.5}) {
		t.Fatalf("file variant: %v %v", got, err)
	}
}
