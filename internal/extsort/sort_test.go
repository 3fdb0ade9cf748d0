package extsort_test

// The external-sort contract, checked where it always was — but against
// the one out-of-core sorter: core.SortFileShard on a one-rank world, its
// block drained through Spilled.Stream into the tier's File. These tests
// predate the unification (they drove extsort.SortFile/Sort) and keep
// every property those checked.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/extsort"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/recordio"
	"sdssort/internal/workload"
)

var oneRank = cluster.Topology{Nodes: 1, CoresPerNode: 1}

// spillOpts is core's defaults over sp.
func spillOpts(sp core.SpillOptions) core.Options {
	opt := core.DefaultOptions()
	opt.Spill = &sp
	return opt
}

// sortFile is the external sort of a file as every client spells it
// (sdssort.ExternalSortFile, sdssort -algo external): the file is the
// one rank's shard, the block commits to out through File.
func sortFile[T any](in, out string, cd codec.Codec[T], cmp func(a, b T) int, opt core.Options) error {
	return cluster.Run(oneRank, func(c *comm.Comm) error {
		blk, err := core.SortFileShard(c, in, cd, cmp, opt)
		if err != nil {
			return err
		}
		defer blk.Remove()
		dst, err := extsort.CreateFile(out, 0)
		if err != nil {
			return err
		}
		defer dst.Abort()
		if err := blk.Stream(dst); err != nil {
			return err
		}
		return dst.Commit()
	})
}

// sortTo is the same into a writer (no commit: out has no name).
func sortTo[T any](in string, out io.Writer, cd codec.Codec[T], cmp func(a, b T) int, opt core.Options) error {
	return cluster.Run(oneRank, func(c *comm.Comm) error {
		blk, err := core.SortFileShard(c, in, cd, cmp, opt)
		if err != nil {
			return err
		}
		defer blk.Remove()
		return blk.Stream(out)
	})
}

func TestSortFileManySpills(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	out := filepath.Join(dir, "out.f64")
	keys := workload.ZipfKeys(1, 50000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, f64, keys); err != nil {
		t.Fatal(err)
	}
	// Tiny chunks force 50 spill runs, the small fan-in two levels of
	// pre-merge passes over them.
	stats := &metrics.SpillStats{}
	opt := spillOpts(core.SpillOptions{Dir: dir, ChunkRecords: 1000, MaxFanIn: 4, Stats: stats})
	if err := sortFile(in, out, f64, cmpF, opt); err != nil {
		t.Fatal(err)
	}
	got, err := recordio.ReadFile(out, f64)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("external sort output differs from in-memory sort")
	}
	if runs, passes := stats.RunsSpilled.Load(), stats.MergePasses.Load(); runs < 50 || passes < 3 {
		t.Fatalf("%d runs in %d merge passes: 50 chunks under fan-in 4 need more", runs, passes)
	}
}

func TestSortSingleChunk(t *testing.T) {
	// Everything fits one chunk: no merge needed.
	var out bytes.Buffer
	in := filepath.Join(t.TempDir(), "in.f64")
	keys := workload.Uniform(2, 500)
	if err := recordio.WriteFile(in, f64, keys); err != nil {
		t.Fatal(err)
	}
	stats := &metrics.SpillStats{}
	opt := spillOpts(core.SpillOptions{Dir: t.TempDir(), ChunkRecords: 10000, Stats: stats})
	if err := sortTo(in, &out, f64, cmpF, opt); err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeSlice(f64, out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("mismatch")
	}
	if runs, passes := stats.RunsSpilled.Load(), stats.MergePasses.Load(); runs != 1 || passes != 0 {
		t.Fatalf("one chunk became %d runs in %d merge passes", runs, passes)
	}
}

func TestSortEmptyInput(t *testing.T) {
	var out bytes.Buffer
	in := filepath.Join(t.TempDir(), "in.f64")
	if err := recordio.WriteFile(in, f64, nil); err != nil {
		t.Fatal(err)
	}
	if err := sortTo(in, &out, f64, cmpF, spillOpts(core.SpillOptions{Dir: t.TempDir()})); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty input produced %d bytes", out.Len())
	}
}

func TestSortStableAcrossRuns(t *testing.T) {
	// Equal keys spanning multiple spill runs must keep file order in
	// stable mode; Tagged records carry their input position.
	var out bytes.Buffer
	in := filepath.Join(t.TempDir(), "in.tag")
	cd := codec.TaggedCodec{}
	const n = 5000
	recs := make([]codec.Tagged, n)
	for i := range recs {
		recs[i] = codec.Tagged{Key: float64(i % 3), Index: int32(i)}
	}
	if err := recordio.WriteFile(in, cd, recs); err != nil {
		t.Fatal(err)
	}
	opt := spillOpts(core.SpillOptions{Dir: t.TempDir(), ChunkRecords: 700})
	opt.Stable = true
	if err := sortTo(in, &out, cd, compareTagged, opt); err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodeSlice(cd, out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d records", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
		if got[i-1].Key == got[i].Key && got[i-1].Index > got[i].Index {
			t.Fatalf("stability violated at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

func TestSortFileErrors(t *testing.T) {
	dir := t.TempDir()
	opt := spillOpts(core.SpillOptions{Dir: dir})
	if err := sortFile(filepath.Join(dir, "missing"), filepath.Join(dir, "out"), f64, cmpF, opt); err == nil {
		t.Fatal("missing input accepted")
	}
	// Ragged input file.
	bad := filepath.Join(dir, "bad.f64")
	if err := os.WriteFile(bad, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sortFile(bad, filepath.Join(dir, "out2"), f64, cmpF, opt); err == nil {
		t.Fatal("ragged input accepted")
	}
	assertOnly(t, dir, "bad.f64")
}

// assertOnly fails unless dir holds exactly the named entries — no
// output, no temp, no spill directory left by a failed sort.
func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	slices.Sort(names)
	if !slices.Equal(got, names) {
		t.Fatalf("directory holds %v, want %v", got, names)
	}
}

// TestSortFileAtomicOnError: a failing sort must leave an existing
// destination byte-for-byte untouched and remove its temp output — the
// first SortFile opened-and-truncated the destination first, so any
// error destroyed the file it was asked to replace.
func TestSortFileAtomicOnError(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.f64")
	precious := []float64{3, 1, 4, 1, 5}
	if err := recordio.WriteFile(out, f64, precious); err != nil {
		t.Fatal(err)
	}
	// Ragged input: the sort fails before it has a block to write.
	in := filepath.Join(dir, "bad.f64")
	if err := os.WriteFile(in, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sortFile(in, out, f64, cmpF, spillOpts(core.SpillOptions{Dir: dir})); err == nil {
		t.Fatal("ragged input accepted")
	}
	// And one that fails with the output half written: a run loses its
	// tail between the sort and the drain.
	good := filepath.Join(dir, "in.f64")
	if err := recordio.WriteFile(good, f64, workload.Uniform(5, 4000)); err != nil {
		t.Fatal(err)
	}
	err := cluster.Run(oneRank, func(c *comm.Comm) error {
		blk, err := core.SortFileShard(c, good, f64, cmpF, spillOpts(core.SpillOptions{Dir: dir, ChunkRecords: 1000, BufBytes: 1 << 10}))
		if err != nil {
			return err
		}
		defer blk.Remove()
		// On one rank the block is the local runs, one per chunk.
		runs, err := filepath.Glob(filepath.Join(dir, "spill-*", "local-000003"))
		if err != nil || len(runs) != 1 {
			return fmt.Errorf("run file of the fourth chunk: %v %v", runs, err)
		}
		if err := os.Truncate(runs[0], 1000*8-3); err != nil {
			return err
		}
		dst, err := extsort.CreateFile(out, 0)
		if err != nil {
			return err
		}
		defer dst.Abort()
		if err := blk.Stream(dst); err == nil {
			return errors.New("a run with a ragged tail streamed clean")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := recordio.ReadFile(out, f64)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, precious) {
		t.Fatalf("failed sort clobbered the destination: %v", got)
	}
	assertOnly(t, dir, "bad.f64", "in.f64", "out.f64")
}

// TestSortFileAtomicOnSuccess: the committed output appears via rename
// and no temp files survive in either directory.
func TestSortFileAtomicOnSuccess(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	out := filepath.Join(dir, "out.f64")
	keys := workload.Uniform(11, 3000)
	if err := recordio.WriteFile(in, f64, keys); err != nil {
		t.Fatal(err)
	}
	// Overwrite an existing destination, too — the realistic re-run.
	if err := recordio.WriteFile(out, f64, []float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := sortFile(in, out, f64, cmpF, spillOpts(core.SpillOptions{Dir: dir, ChunkRecords: 500})); err != nil {
		t.Fatal(err)
	}
	got, err := recordio.ReadFile(out, f64)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("sorted output wrong")
	}
	assertOnly(t, dir, "in.f64", "out.f64")
}

// TestSortGaugeReservations: the documented ChunkRecords × size × 2
// chunk-phase peak (plus the merge phase's cursor buffers) must
// actually hit the gauge, and everything must drain to zero by the
// time the sort returns — an external sort inside a budgeted job must
// not run unaccounted.
func TestSortGaugeReservations(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	keys := workload.ZipfKeys(3, 10000, 1.3, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, f64, keys); err != nil {
		t.Fatal(err)
	}
	const chunk = 1000
	g := memlimit.New(64 << 20)
	opt := spillOpts(core.SpillOptions{Dir: dir, ChunkRecords: chunk, MaxFanIn: 4})
	opt.Mem = g
	if err := sortFile(in, filepath.Join(dir, "out.f64"), f64, cmpF, opt); err != nil {
		t.Fatal(err)
	}
	if g.Used() != 0 {
		t.Fatalf("gauge holds %d bytes after the sort returned", g.Used())
	}
	if min := int64(chunk) * 8 * 2; g.Peak() < min {
		t.Fatalf("peak %d below the documented chunk footprint %d", g.Peak(), min)
	}

	// And a budget below the chunk footprint is refused up front.
	tight := memlimit.New(chunk * 8)
	sp := core.SpillOptions{Dir: dir, ChunkRecords: chunk}
	sp.FitBudget(tight.Budget()) // buffers the budget can hold, so the chunk is what is refused
	opt = spillOpts(sp)
	opt.Mem = tight
	err := sortFile(in, filepath.Join(dir, "out2.f64"), f64, cmpF, opt)
	if !errors.Is(err, memlimit.ErrOutOfMemory) || !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("got %v, want the chunk refused with ErrOutOfMemory", err)
	}
	if tight.Used() != 0 {
		t.Fatalf("failed sort left %d bytes reserved", tight.Used())
	}
	assertOnly(t, dir, "in.f64", "out.f64")
}

// TestSortRadixDispatch: integer-keyed codecs must take the radix fast
// path in the streamed sort's chunks as in the resident local sort —
// and produce the identical output to the comparison path; a comparator
// that disagrees with the key order (descending) must make the dispatch
// stand down and still sort correctly.
func TestSortRadixDispatch(t *testing.T) {
	dir := t.TempDir()
	u64 := codec.Uint64{}
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	in := filepath.Join(dir, "in.u64")
	if err := recordio.WriteFile(in, u64, keys); err != nil {
		t.Fatal(err)
	}
	asc := func(a, b uint64) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	desc := func(a, b uint64) int { return -asc(a, b) }

	sortWith := func(name string, cmp func(a, b uint64) int, stable bool) []uint64 {
		t.Helper()
		out := filepath.Join(dir, name)
		opt := spillOpts(core.SpillOptions{Dir: dir, ChunkRecords: 3000})
		opt.Stable = stable
		if err := sortFile(in, out, u64, cmp, opt); err != nil {
			t.Fatal(err)
		}
		got, err := recordio.ReadFile(out, u64)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	radixed := sortWith("radix.u64", asc, false) // dispatch accepts
	compared := sortWith("cmp.u64", asc, true)   // stable forces comparison
	if !slices.Equal(radixed, compared) {
		t.Fatal("radix and comparison paths disagree")
	}
	want := append([]uint64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(radixed, want) {
		t.Fatal("radix output not sorted")
	}

	down := sortWith("desc.u64", desc, false) // dispatch must stand down
	slices.Reverse(want)
	if !slices.Equal(down, want) {
		t.Fatal("descending comparator mis-sorted after radix dispatch")
	}
}

// TestSortENOSPC streams the block into /dev/full: the write error
// must surface from Spilled.Stream as a failure (not a silently
// truncated output), with nothing left in the spill directory.
func TestSortENOSPC(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	if err := recordio.WriteFile(in, f64, workload.Uniform(7, 5000)); err != nil {
		t.Fatal(err)
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("cannot open /dev/full for writing")
	}
	defer full.Close()
	opt := spillOpts(core.SpillOptions{Dir: dir, ChunkRecords: 1000})
	if err := sortTo(in, full, f64, cmpF, opt); err == nil {
		t.Fatal("ENOSPC swallowed: the sort reported success writing to /dev/full")
	} else if !strings.Contains(err.Error(), "no space left on device") {
		t.Fatalf("error does not surface ENOSPC: %v", err)
	}
	assertOnly(t, dir, "in.f64")
}

func BenchmarkExternalSort(b *testing.B) {
	dir := b.TempDir()
	in := filepath.Join(dir, "in.f64")
	keys := workload.ZipfKeys(9, 200000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, f64, keys); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(dir, "out.f64")
		if err := sortFile(in, out, f64, cmpF, spillOpts(core.SpillOptions{Dir: dir, ChunkRecords: 20000})); err != nil {
			b.Fatal(err)
		}
	}
}
