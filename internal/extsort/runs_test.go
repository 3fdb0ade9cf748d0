package extsort_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sdssort/internal/codec"
	"sdssort/internal/extsort"
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
		var got []float64
		if err := ms.Drain(func(rec float64) error { got = append(got, rec); return nil }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := read(); !slices.Equal(got, want) {
		t.Fatal("first capped segment merge wrong")
	}
	// The inputs must still be there for a second pass.
	if got := read(); !slices.Equal(got, want) {
		t.Fatal("second pass over the same segments wrong — inputs were consumed")
	}
}

// FuzzRunReader fuzzes the one place run-file bytes are parsed: the
// segment cursor under the merge. Arbitrary bytes stand in for a run
// file and arbitrary bounds for a segment of it. Whatever they are the
// reader must not panic; for bounds that make sense it must yield
// exactly the segment's records, and a file that ends inside the
// segment — a short segment, or a ragged tail — must be an error, never
// a silently shorter run.
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
		var got []byte
		read := func() error {
			ms, err := extsort.OpenMergeSegments([]extsort.RunSegment{{Path: path, Lo: lo, Hi: hi}}, f64, cmpF,
				extsort.MergeOptions{BufBytes: 64})
			if err != nil {
				return err
			}
			defer ms.Close()
			// Bytes, not records: NaN keys are valid run content.
			return ms.Drain(func(rec float64) error {
				var b [8]byte
				f64.Marshal(b[:], rec)
				got = append(got, b[:]...)
				return nil
			})
		}
		err := read()
		const far = 1 << 20
		if lo < 0 || lo > far || hi > far || (hi >= 0 && hi < lo) {
			return // not a segment of any file this small: only "no panic" is owed
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
