package extsort_test

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sdssort/internal/codec"
	"sdssort/internal/extsort"
	"sdssort/internal/memlimit"
	"sdssort/internal/recordio"
)

var f64 = codec.Float64{}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareTagged orders Tagged records by key only.
func compareTagged(a, b codec.Tagged) int { return codec.CompareOrdered(a.Key, b.Key) }

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), extsort.TempPrefix) {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestFileCommit: the one writer's contract on a regular destination —
// invisible until Commit, mode 0644 afterwards (not CreateTemp's 0600),
// typed writes flushed by Commit itself, Abort after Commit a no-op, and
// an aborted writer leaves neither a temp nor a touched destination.
func TestFileCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run")
	fw, err := extsort.CreateFile(path, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if err := extsort.Records(fw, f64).Write(want...); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("run visible before Commit (err=%v)", err)
	}
	if err := fw.Commit(); err != nil {
		t.Fatal(err)
	}
	fw.Abort()
	if got, err := recordio.ReadFile(path, f64); err != nil || !slices.Equal(got, want) {
		t.Fatalf("committed run holds %v (err=%v)", got, err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("committed run mode %v, want 0644 (err=%v)", st.Mode().Perm(), err)
	}

	over, err := extsort.CreateFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := over.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	over.Abort()
	if got, err := recordio.ReadFile(path, f64); err != nil || !slices.Equal(got, want) {
		t.Fatalf("aborted overwrite changed the destination: %v (err=%v)", got, err)
	}
	assertNoTemps(t, dir)
}

// TestFileNonRegularDestination: a destination that is not a regular
// file is written in place — a rename commit would replace the node
// itself (/dev/null becoming a regular file). A symlink stands in for
// the device node: it must still be a symlink afterwards, and its
// target must hold exactly the new bytes, nothing of a longer old file.
func TestFileNonRegularDestination(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	link := filepath.Join(dir, "link")
	if err := os.WriteFile(target, []byte("a much longer previous content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	fw, err := extsort.CreateFile(link, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte("sorted")); err != nil {
		t.Fatal(err)
	}
	if err := fw.Commit(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Lstat(link); err != nil || st.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the symlink was replaced: mode %v (err=%v)", st.Mode(), err)
	}
	if got, err := os.ReadFile(target); err != nil || string(got) != "sorted" {
		t.Fatalf("target holds %q (err=%v)", got, err)
	}
	assertNoTemps(t, dir)
}

// TestRemoveStaleTemps: the startup sweep removes orphaned .tmp-run-
// files, keeps everything else, and tolerates a missing directory.
func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "run-000001")
	stale := filepath.Join(dir, extsort.TempPrefix+"123456")
	for _, f := range []string{keep, stale} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := extsort.RemoveStaleTemps(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived the sweep (err=%v)", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("committed run swept away: %v", err)
	}
	if err := extsort.RemoveStaleTemps(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("missing dir not tolerated: %v", err)
	}
}

// TestMergeSegmentsNonConsuming: merging segment views of shared run
// files — even under a fan-in cap that forces pre-merge passes — must
// leave the underlying runs intact and re-readable.
func TestMergeSegmentsNonConsuming(t *testing.T) {
	dir := t.TempDir()
	var runs []string
	var want []float64
	for r := 0; r < 9; r++ {
		recs := make([]float64, 100)
		for i := range recs {
			recs[i] = float64(r*1000 + i*3)
		}
		want = append(want, recs...)
		path := filepath.Join(dir, "run-"+string(rune('a'+r)))
		if err := recordio.WriteFile(path, f64, recs); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, path)
	}
	slices.Sort(want)
	read := func() []float64 {
		t.Helper()
		ms, err := extsort.OpenMergeSegments(extsort.WholeRuns(runs), f64, cmpF,
			extsort.MergeOptions{MaxFanIn: 3, TempDir: dir, BufBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		got := make([]float64, len(want)+1)
		n, err := ms.Fill(got)
		if err != nil {
			t.Fatal(err)
		}
		return got[:n]
	}
	if got := read(); !slices.Equal(got, want) {
		t.Fatal("first capped segment merge wrong")
	}
	// The inputs must still be there for a second pass.
	if got := read(); !slices.Equal(got, want) {
		t.Fatal("second pass over the same segments wrong — inputs were consumed")
	}
}

// plainF64 is f64 without the zero-copy declaration: it drives the
// marshal paths of the cursor and the merge's output block.
var plainF64 = codec.Funcs[float64]{Width: 8, MarshalFn: f64.Marshal, UnmarshFn: f64.Unmarshal}

// mergeBytes streams a one-segment merge through a bufBytes output
// block — bytes, not records: NaN keys are valid run content.
func mergeBytes(cd codec.Codec[float64], seg extsort.RunSegment, bufBytes int) ([]byte, error) {
	ms, err := extsort.OpenMergeSegments([]extsort.RunSegment{seg}, cd, cmpF, extsort.MergeOptions{BufBytes: bufBytes, MaxFanIn: 2})
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	var out bytes.Buffer
	_, err = ms.Stream(&out, bufBytes)
	return out.Bytes(), err
}

// FuzzRunReader fuzzes every read of record-file bytes, all of them
// recordio.ReadBlock: the segment cursor under the merge, the spilled
// sort's chunk fill and the whole-range read of a shard, each on both
// codec paths — the zero-copy read into the records' memory and the
// marshal decode. Arbitrary bytes stand in for a file and arbitrary
// bounds for a segment of it. Whatever they are the cursor must not
// panic, and its two paths must agree: the same bytes, and an error on
// one exactly when the other errs. For bounds that make sense it must
// yield exactly the segment's records, and a file that ends inside the
// segment — a short segment, or a ragged tail — must be an error, never
// a silently shorter run; the chunk fill and the whole-range read must
// yield the cursor's bytes, or fail exactly when it fails.
func FuzzRunReader(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 0xf8}, 9), int64(2), int64(7))
	f.Add(make([]byte, 8*5+3), int64(0), int64(-1))
	f.Add(make([]byte, 8*5), int64(3), int64(9))
	f.Add([]byte("ragged"), int64(-4), int64(1)<<62)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64) {
		path := filepath.Join(dir, "run")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg := extsort.RunSegment{Path: path, Lo: lo, Hi: hi}
		got, err := mergeBytes(f64, seg, 64)
		plain, perr := mergeBytes(plainF64, seg, 64)
		if (err == nil) != (perr == nil) {
			t.Fatalf("segment [%d,%d) of a %d-byte file: zero-copy error %v, marshal error %v", lo, hi, len(data), err, perr)
		}
		if err == nil && !bytes.Equal(got, plain) {
			t.Fatalf("segment [%d,%d): zero-copy and marshal cursors yield different bytes", lo, hi)
		}
		const far = 1 << 20
		if lo < 0 || lo > far || hi > far || (hi >= 0 && hi < lo) {
			return // not a segment of any file this small: only "no panic" is owed
		}
		for _, cd := range []codec.Codec[float64]{f64, plainF64} {
			for _, chunk := range []int64{3, 0} { // the chunk fill, then the whole range at once
				read, rerr := rangeRead(cd, path, lo, hi, chunk)
				if (rerr == nil) != (err == nil) || err == nil && !bytes.Equal(read, got) {
					t.Fatalf("segment [%d,%d) of a %d-byte file read %d records at a time: %d bytes (err %v); the cursor read %d (err %v)",
						lo, hi, len(data), chunk, len(read), rerr, len(got), err)
				}
			}
		}
		rest := data[min(lo*8, int64(len(data))):]
		want := int64(len(rest)) // through end of file
		if hi >= 0 {
			want = (hi - lo) * 8
		}
		if want > int64(len(rest)) || want%8 != 0 {
			if err == nil {
				t.Fatalf("segment [%d,%d) of a %d-byte file read as %d clean records", lo, hi, len(data), len(got)/8)
			}
			return
		}
		if err != nil {
			t.Fatalf("segment [%d,%d) of a %d-byte file refused: %v", lo, hi, len(data), err)
		}
		if !bytes.Equal(got, rest[:want]) {
			t.Fatalf("segment [%d,%d) yielded %d bytes, not the file's", lo, hi, len(got))
		}
	})
}

// rangeRead reads records [lo, hi) of the file at path (hi < 0: through
// its end) as the spilled sort fills its chunks — ReadBlock over the
// range's bytes, chunk records at a time, until io.EOF — or, for chunk
// 0, as recordio.ReadShard reads a shard: one ReadBlock into a slice of
// the whole range. The marshal path reads through a two-record wire
// buffer. A range that ends early is an error.
func rangeRead(cd codec.Codec[float64], path string, lo, hi, chunk int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := hi - lo
	if hi < 0 {
		n = max(st.Size()-lo*8+7, 0) / 8 // a ragged tail reads as a partial record
	}
	in, wire := io.NewSectionReader(f, lo*8, n*8), make([]byte, 16)
	if chunk == 0 {
		recs := make([]float64, n)
		k, err := recordio.ReadBlock(in, cd, recs, wire)
		if err == io.EOF {
			err = fmt.Errorf("range ends %d records early", n-int64(k))
		}
		return codec.EncodeSlice(cd, nil, recs[:k]), err
	}
	recs := make([]float64, chunk)
	var out []byte
	for {
		k, err := recordio.ReadBlock(in, cd, recs, wire)
		out = codec.EncodeSlice(cd, out, recs[:k])
		switch {
		case err == io.EOF && int64(len(out)) != n*8:
			return out, fmt.Errorf("range ends %d records early", n-int64(len(out))/8)
		case err == io.EOF:
			return out, nil
		case err != nil:
			return out, err
		}
	}
}

// TestCursorBlockBoundaries reads segments that start and end on and
// off the cursor's 8-record block through both cursor paths, each under
// a one-run merge: each read yields exactly the segment's bytes, and a
// file that ends inside the segment, or mid-record, is an error on both.
func TestCursorBlockBoundaries(t *testing.T) {
	const n = 8*6 + 5
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole")
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) + 0.5
	}
	if err := recordio.WriteFile(whole, f64, keys); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	ragged := filepath.Join(dir, "ragged")
	if err := os.WriteFile(ragged, append(append([]byte(nil), data...), 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []struct {
		name     string
		cd       codec.Codec[float64]
		bufBytes int // the cursor's ¾ share holds an 8-record block (plus, marshalling, its 8 records of wire bytes)
	}{{"zerocopy", f64, 88}, {"marshal", plainF64, 176}} {
		read := func(seg extsort.RunSegment) ([]byte, error) {
			return mergeBytes(path.cd, seg, path.bufBytes)
		}
		for _, lo := range []int64{0, 3} {
			for _, size := range []int64{0, 1, 7, 8, 9, 8*4 + 3} {
				got, err := read(extsort.RunSegment{Path: whole, Lo: lo, Hi: lo + size})
				if err != nil || !bytes.Equal(got, data[lo*8:(lo+size)*8]) {
					t.Fatalf("%s: segment [%d,%d) yielded %d bytes (err=%v), not the file's %d", path.name, lo, lo+size, len(got), err, size*8)
				}
			}
		}
		if got, err := read(extsort.RunSegment{Path: whole, Hi: -1}); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: the whole file yielded %d of %d bytes (err=%v)", path.name, len(got), len(data), err)
		}
		for _, bad := range []extsort.RunSegment{
			{Path: whole, Lo: 3, Hi: n + 1}, // the file ends inside the segment
			{Path: whole, Lo: n - 9, Hi: n + 8*2},
			{Path: ragged, Lo: 3, Hi: n + 1}, // ... mid-record
			{Path: ragged, Hi: -1},           // a ragged tail
		} {
			if _, err := read(bad); err == nil {
				t.Fatalf("%s: segment [%d,%d) of %s read clean", path.name, bad.Lo, bad.Hi, filepath.Base(bad.Path))
			}
		}
	}
}

// TestMergeAllocations: draining a merge allocates nothing per record
// or per block refill — 8 runs of 10 000 and of 100 000 records cost the
// same allocations, all of them opening the merge and its output block.
// AllocsPerRun counts the whole process and floors the mean, so 20 runs
// keep a stray background allocation from moving it.
func TestMergeAllocations(t *testing.T) {
	allocs := func(perRun int) float64 {
		runs := writeRuns(t, 8, perRun)
		return testing.AllocsPerRun(20, func() {
			ms, err := extsort.OpenMerge(runs, f64, cmpF, extsort.MergeOptions{BufBytes: 4 << 10, MaxFanIn: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer ms.Close()
			if n, err := ms.Stream(io.Discard, 4<<10); err != nil || n != int64(8*perRun) {
				t.Fatalf("merged %d of %d records (err=%v)", n, 8*perRun, err)
			}
		})
	}
	if small, large := allocs(10_000), allocs(100_000); small != large {
		t.Fatalf("draining 8 runs allocates %v times at 10 000 records a run, %v at 100 000", small, large)
	}
}

// writeRuns writes k sorted runs of n random float64 keys each.
func writeRuns(tb testing.TB, k, n int) []string {
	tb.Helper()
	dir := tb.TempDir()
	rng := rand.New(rand.NewSource(int64(k*n + 1)))
	runs := make([]string, k)
	for r := range runs {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64()
		}
		slices.Sort(keys)
		runs[r] = filepath.Join(dir, fmt.Sprintf("run-%d", r))
		if err := recordio.WriteFile(runs[r], f64, keys); err != nil {
			tb.Fatal(err)
		}
	}
	return runs
}

// BenchmarkRunMerge merges 8 runs of 64 Ki float64 keys through 64 KiB
// cursor and output blocks, on the zero-copy and the marshal path.
func BenchmarkRunMerge(b *testing.B) {
	const k, n, bufBytes = 8, 64 << 10, 64 << 10
	runs := writeRuns(b, k, n)
	for _, path := range []struct {
		name string
		cd   codec.Codec[float64]
	}{{"zerocopy", f64}, {"marshal", plainF64}} {
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(k * n * 8)
			for i := 0; i < b.N; i++ {
				ms, err := extsort.OpenMergeSegments(extsort.WholeRuns(runs), path.cd, cmpF, extsort.MergeOptions{BufBytes: bufBytes, MaxFanIn: 64})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ms.Stream(io.Discard, bufBytes); err != nil {
					b.Fatal(err)
				}
				ms.Close()
			}
		})
	}
}

// u64 and plainU64 carry FuzzRunMerge's tagged records on the zero-copy
// and the marshal path.
var (
	u64      = codec.Uint64{}
	plainU64 = codec.Funcs[uint64]{Width: 8, MarshalFn: u64.Marshal, UnmarshFn: u64.Unmarshal}
)

// cmpTagKey orders tagged records by key alone, the top byte: the run
// and position below it ride along, so any reordering of equal keys
// shows.
func cmpTagKey(a, b uint64) int { return cmp.Compare(a>>56, b>>56) }

// FuzzRunMerge fuzzes the merge tree against the stable sort of its
// input. The bytes describe k ≤ 17 runs — each a length (empty runs
// included) and keys from a four-letter alphabet, so ties cross runs —
// stored as segments [Lo, Hi) of files padded on both sides with
// records that must never be read. Each record carries its run and
// position, and the merged order must equal slices.SortStableFunc over
// the runs concatenated in run order, through Fill and through Stream,
// at block and node buffers down to one record, on both codec paths and
// under fan-in caps that force pre-merges.
func FuzzRunMerge(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 4, 2, 2, 0, 1, 1, 0, 3, 3, 1, 2, 0}, uint8(5), uint8(0), uint8(0), false)
	f.Add(bytes.Repeat([]byte{7, 0, 1, 2, 3}, 20), uint8(17), uint8(3), uint8(1), true)
	f.Add([]byte{0, 0, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(3), uint8(40), uint8(2), false)
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, kRaw, bufRaw, fanRaw uint8, marshal bool) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		k := int(kRaw) % 18
		bufBytes := 8 * (1 + int(bufRaw)%16) // one record per block and per node at 8
		cd := codec.Codec[uint64](u64)
		if marshal {
			cd = plainU64
		}
		dir := t.TempDir()
		var segs []extsort.RunSegment
		var want []uint64
		for r := 0; r < k; r++ {
			n, pre, post := next()%24, next()%3, next()%3
			recs := make([]uint64, 0, pre+n+post)
			for range pre {
				recs = append(recs, math.MaxUint64) // padding: a key no run holds
			}
			for range n {
				recs = append(recs, uint64(next()%4)<<56|uint64(r)<<16)
			}
			slices.SortStableFunc(recs[pre:], cmpTagKey)
			for i := range recs[pre:] {
				recs[pre+i] = recs[pre+i]&^0xffff | uint64(i) // tag positions in run order
			}
			want = append(want, recs[pre:]...)
			for range post {
				recs = append(recs, 0)
			}
			path := filepath.Join(dir, fmt.Sprintf("run-%02d", r))
			if err := recordio.WriteFile(path, u64, recs); err != nil {
				t.Fatal(err)
			}
			segs = append(segs, extsort.RunSegment{Path: path, Lo: int64(pre), Hi: int64(pre + n)})
		}
		slices.SortStableFunc(want, cmpTagKey)
		opt := extsort.MergeOptions{BufBytes: bufBytes, MaxFanIn: 2 + int(fanRaw)%17, TempDir: dir}
		open := func() *extsort.MergeStream[uint64] {
			t.Helper()
			ms, err := extsort.OpenMergeSegments(segs, cd, cmpTagKey, opt)
			if err != nil {
				t.Fatal(err)
			}
			return ms
		}
		ms := open()
		got := make([]uint64, len(want)+1)
		n, err := ms.Fill(got)
		ms.Close()
		if err != nil || !slices.Equal(got[:n], want) {
			t.Fatalf("k=%d buf=%d fan=%d: Fill yielded %d of %d records out of stable order (err=%v)", k, bufBytes, opt.MaxFanIn, n, len(want), err)
		}
		ms = open()
		var out bytes.Buffer
		_, err = ms.Stream(&out, bufBytes)
		ms.Close()
		streamed, derr := codec.DecodeAppend(u64, nil, out.Bytes())
		if err != nil || derr != nil || !slices.Equal(streamed, want) {
			t.Fatalf("k=%d buf=%d fan=%d: Stream yielded %d of %d records out of stable order (err=%v)", k, bufBytes, opt.MaxFanIn, len(streamed), len(want), err)
		}
	})
}

// TestMergeLedger: a merge's memory is its reservation, which the tree
// does not move — k runs hold exactly k × BufBytes from OpenMerge to
// Close, their cursor blocks and node buffers carved from it; a
// pre-merge pass holds exactly one BufBytes more, its output block; and
// Close returns the gauge to zero.
func TestMergeLedger(t *testing.T) {
	const k, buf = 5, 4 << 10
	g := memlimit.New(1 << 30)
	ms, err := extsort.OpenMerge(writeRuns(t, k, 3000), f64, cmpF, extsort.MergeOptions{BufBytes: buf, Mem: g, MaxFanIn: 64})
	if err != nil {
		t.Fatal(err)
	}
	if g.Used() != k*buf {
		t.Fatalf("%d runs open hold %d bytes, want %d", k, g.Used(), k*buf)
	}
	if _, err := ms.Stream(io.Discard, buf); err != nil {
		t.Fatal(err)
	}
	if g.Used() != k*buf || g.Peak() != k*buf {
		t.Fatalf("draining moved the ledger: %d used, %d peak, want %d", g.Used(), g.Peak(), k*buf)
	}
	ms.Close()
	if g.Used() != 0 {
		t.Fatalf("%d bytes held after Close", g.Used())
	}

	// Five runs under a fan-in of four: one pre-merge pass of four, then
	// a merge of its output and the fifth run.
	g = memlimit.New(1 << 30)
	ms, err = extsort.OpenMerge(writeRuns(t, k, 3000), f64, cmpF, extsort.MergeOptions{BufBytes: buf, Mem: g, MaxFanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.Peak() != (4+1)*buf || g.Used() != 2*buf {
		t.Fatalf("pre-merge peaked at %d and left %d held, want %d and %d", g.Peak(), g.Used(), (4+1)*buf, 2*buf)
	}
	ms.Close()
	if g.Used() != 0 {
		t.Fatalf("%d bytes held after Close", g.Used())
	}
}

// TestMergeRejectsBadOptions: the merge takes its sizes from the caller
// and refuses the two that cannot work — a fan-in that could never
// reduce the run count, and a buffer that holds no record.
func TestMergeRejectsBadOptions(t *testing.T) {
	runs := writeRuns(t, 2, 10)
	for _, opt := range []extsort.MergeOptions{{MaxFanIn: 1, BufBytes: 64}, {MaxFanIn: 2, BufBytes: 7}, {}} {
		if ms, err := extsort.OpenMerge(runs, f64, cmpF, opt); err == nil {
			ms.Close()
			t.Fatalf("merge accepted fan-in %d through %d-byte buffers", opt.MaxFanIn, opt.BufBytes)
		}
	}
}
