package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sdssort/internal/codec"
	"sdssort/internal/recordio"
	"sdssort/internal/trace"
	"sdssort/internal/workload"
)

// TestMain lets the test binary impersonate the CLI: when the marker
// environment variable is set, run main() with the given arguments
// instead of the tests — the standard pattern for exercising a command
// end to end without shelling out to `go run`.
func TestMain(m *testing.M) {
	if os.Getenv("SDSSORT_CLI_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI invokes this test binary as the CLI with args.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SDSSORT_CLI_CHILD=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLISortRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	out := filepath.Join(dir, "out.f64")
	keys := workload.ZipfKeys(1, 20000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	stdout, err := runCLI(t, "-in", in, "-out", out, "-nodes", "2", "-cores", "2", "-stable")
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	if !strings.Contains(stdout, "sorted 20000 records") {
		t.Fatalf("unexpected output:\n%s", stdout)
	}
	got, err := recordio.ReadFile(out, codec.Float64{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("CLI output is not the sorted input")
	}
}

func TestCLIBaselineAlgos(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	if err := recordio.WriteFile(in, codec.Float64{}, workload.Uniform(2, 5000)); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"hyksort", "psrs"} {
		stdout, err := runCLI(t, "-in", in, "-algo", algo, "-verify=false")
		if err != nil {
			t.Fatalf("%s: %v\n%s", algo, err, stdout)
		}
		if !strings.Contains(stdout, "sorted 5000 records with "+algo) {
			t.Fatalf("%s output:\n%s", algo, stdout)
		}
	}
}

func TestCLIExternalSort(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	out := filepath.Join(dir, "out.f64")
	keys := workload.Uniform(3, 30000)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	stdout, err := runCLI(t, "-in", in, "-out", out, "-algo", "external", "-spill-chunk", "4000", "-spill-dir", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	got, err := recordio.ReadFile(out, codec.Float64{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) || len(got) != len(keys) {
		t.Fatal("external sort output wrong")
	}
	// Regression: the output used to keep os.CreateTemp's 0600 on this
	// route while the resident and -spill-dir routes wrote 0644.
	if st, err := os.Stat(out); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("output mode %v, want 0644 (err=%v)", st.Mode().Perm(), err)
	}
	// A CSV column goes through a keys file, which must not outlive the run.
	csv := filepath.Join(dir, "keys.csv")
	if err := os.WriteFile(csv, []byte("id,score\n1,0.9\n2,0.1\n3,0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if stdout, err := runCLI(t, "-in", csv, "-type", "csv", "-col", "1", "-out", out, "-algo", "external", "-spill-dir", dir); err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	if got, err := recordio.ReadFile(out, codec.Float64{}); err != nil || !slices.Equal(got, []float64{0.1, 0.5, 0.9}) {
		t.Fatalf("csv external sort wrote %v (err=%v)", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("%d entries left beside in, out and the csv: %v", len(ents), ents)
	}
}

// TestCLIExternalNonRegularDestination: -out naming something that is
// not a regular file must be written in place — the rename commit would
// replace the node itself, which for /dev/null breaks the machine. A
// symlink stands in for the device node.
func TestCLIExternalNonRegularDestination(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	target := filepath.Join(dir, "target.f64")
	link := filepath.Join(dir, "link.f64")
	keys := workload.Uniform(5, 3000)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	if err := recordio.WriteFile(target, codec.Float64{}, workload.Uniform(6, 9000)); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if stdout, err := runCLI(t, "-in", in, "-out", link, "-algo", "external", "-spill-dir", dir); err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	if st, err := os.Lstat(link); err != nil || st.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("-out was replaced, not written through: mode %v (err=%v)", st.Mode(), err)
	}
	slices.Sort(keys)
	if got, err := recordio.ReadFile(target, codec.Float64{}); err != nil || !slices.Equal(got, keys) {
		t.Fatalf("the link's target does not hold the sorted input (%d records, err=%v)", len(got), err)
	}
}

// TestCLIExternalObservers: -algo external used to return before the
// tracer, gauge and stats existed, silently ignoring -trace, -mem,
// -stats and -verify. It is the spill tier on one rank and honours them
// all — and, like the other routes, sorts without -out.
func TestCLIExternalObservers(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	trc := filepath.Join(dir, "run.jsonl")
	if err := recordio.WriteFile(in, codec.Float64{}, workload.Uniform(8, 40000)); err != nil {
		t.Fatal(err)
	}
	const budget = 64 << 10 // a fifth of the input
	stdout, err := runCLI(t, "-in", in, "-algo", "external", "-mem", strconv.Itoa(budget), "-trace", trc, "-spill-dir", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	if !strings.Contains(stdout, "verified: output globally sorted (40000 records)") {
		t.Fatalf("-verify ignored:\n%s", stdout)
	}
	var peak, of int64
	if i := strings.Index(stdout, "mem peak: "); i < 0 {
		t.Fatalf("-mem/-stats ignored:\n%s", stdout)
	} else if _, err := fmt.Sscanf(stdout[i:], "mem peak: %d of %d", &peak, &of); err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	if of != budget || peak <= 0 || peak > budget {
		t.Fatalf("mem peak %d of %d, want within (0, %d]", peak, of, budget)
	}
	f, err := os.Open(trc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(events)
	if a.SortsStarted != 1 || a.SortsCompleted != 1 || len(a.UnterminatedRanks) != 0 || a.DoneReasons["single"] != 1 {
		t.Fatalf("-trace: %d started, %d done, reasons %v", a.SortsStarted, a.SortsCompleted, a.DoneReasons)
	}
}

// TestCLIExternalIsSpillAtOneRank: -algo external is not a second
// sorter but a spelling of the spill tier on a 1×1 world, so the two
// must write the same bytes — also with equal keys under -stable — and
// so must the resident route on a 2×2 world.
func TestCLIExternalIsSpillAtOneRank(t *testing.T) {
	dir := t.TempDir()
	f64 := filepath.Join(dir, "in.f64")
	ptf := filepath.Join(dir, "in.ptf")
	if err := recordio.WriteFile(f64, codec.Float64{}, workload.Uniform(12, 50000)); err != nil {
		t.Fatal(err)
	}
	if err := recordio.WriteFile(ptf, codec.PTFCodec{}, workload.PTF(13, 30000)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][]string{{"-in", f64}, {"-in", ptf, "-type", "ptf", "-stable"}} {
		ext, spl := filepath.Join(dir, "external.out"), filepath.Join(dir, "spilled.out")
		args := append(tc, "-spill-chunk", "7000", "-spill-dir", dir)
		if stdout, err := runCLI(t, append(args, "-out", ext, "-algo", "external")...); err != nil {
			t.Fatalf("%v\n%s", err, stdout)
		}
		if stdout, err := runCLI(t, append(args, "-out", spl, "-nodes", "1", "-cores", "1")...); err != nil {
			t.Fatalf("%v\n%s", err, stdout)
		}
		res := filepath.Join(dir, "resident.out")
		if stdout, err := runCLI(t, append(tc, "-out", res, "-nodes", "2", "-cores", "2")...); err != nil {
			t.Fatalf("%v\n%s", err, stdout)
		}
		a, err := os.ReadFile(ext)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(spl)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%v: -algo external wrote %d bytes, -nodes 1 -cores 1 -spill-dir %d, and they differ", tc, len(a), len(b))
		}
		if c, err := os.ReadFile(res); err != nil || !bytes.Equal(a, c) {
			t.Fatalf("%v: the resident route wrote %d bytes, -algo external %d, and they differ (err=%v)", tc, len(c), len(a), err)
		}
	}
}

// TestCLIResidentRoute: the resident route drains through the same
// tail as the spilled one — it verifies the concatenated rank blocks as
// they stream out, and an -out naming a symlink is written through, not
// replaced.
func TestCLIResidentRoute(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	target := filepath.Join(dir, "target.f64")
	link := filepath.Join(dir, "link.f64")
	keys := workload.ZipfKeys(14, 20000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	if err := recordio.WriteFile(target, codec.Float64{}, workload.Uniform(15, 30000)); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	stdout, err := runCLI(t, "-in", in, "-out", link, "-nodes", "2", "-cores", "2")
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	for _, want := range []string{"sorted 20000 records with sds", "verified: output globally sorted (20000 records)", "wrote " + link, "zero-copy: "} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output missing %q:\n%s", want, stdout)
		}
	}
	if st, err := os.Lstat(link); err != nil || st.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("-out was replaced, not written through: mode %v (err=%v)", st.Mode(), err)
	}
	slices.Sort(keys)
	if got, err := recordio.ReadFile(target, codec.Float64{}); err != nil || !slices.Equal(got, keys) {
		t.Fatalf("the link's target does not hold the sorted input (%d records, err=%v)", len(got), err)
	}
}

func TestCLICSVInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "keys.csv")
	out := filepath.Join(dir, "out.f64")
	if err := os.WriteFile(in, []byte("id,score\n1,0.9\n2,0.1\n3,0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, err := runCLI(t, "-in", in, "-type", "csv", "-col", "1", "-out", out, "-stats=false")
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	got, err := recordio.ReadFile(out, codec.Float64{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []float64{0.1, 0.5, 0.9}) {
		t.Fatalf("got %v", got)
	}
}

func TestCLITraceOutput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	trc := filepath.Join(dir, "run.jsonl")
	if err := recordio.WriteFile(in, codec.Float64{}, workload.Uniform(4, 3000)); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, "-in", in, "-trace", trc, "-stats=false"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	blob, err := os.ReadFile(trc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"name":"sort"`) {
		t.Fatalf("trace missing events:\n%s", blob)
	}
}

func TestCLIErrors(t *testing.T) {
	if _, err := runCLI(t, "-in", "/nonexistent/file"); err == nil {
		t.Fatal("missing input accepted")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	if err := recordio.WriteFile(in, codec.Float64{}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "-in", in, "-type", "bogus"); err == nil {
		t.Fatal("bogus type accepted")
	}
	if _, err := runCLI(t, "-in", in, "-algo", "bogus"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if _, err := runCLI(t, "-in", in, "-algo", "external", "-chunk", "4000"); err == nil {
		t.Fatal("the retired -chunk flag accepted (it is -spill-chunk)")
	}
	if _, err := runCLI(t, "-in", in, "-algo", "external", "-type", "bogus"); err == nil {
		t.Fatal("bogus type accepted by -algo external")
	}
}

// TestCLITraceWriteFailure points -trace at /dev/full: the sort itself
// succeeds, but the trace file lost every event to ENOSPC, so the run
// must exit non-zero and say so instead of shipping a silently
// truncated trace. (Before the deliberate finalisation this passed with
// exit 0.)
func TestCLITraceWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	if err := recordio.WriteFile(in, codec.Float64{}, workload.Uniform(3, 2000)); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-in", in, "-verify=false", "-trace", "/dev/full")
	if err == nil {
		t.Fatalf("full trace device accepted with exit 0:\n%s", out)
	}
	if !strings.Contains(out, "trace: write failed") || !strings.Contains(out, "incomplete") {
		t.Fatalf("no clear trace-loss message:\n%s", out)
	}
}

// TestCLITraceWrites is the happy path of the same contract: a healthy
// -trace run exits 0 and leaves a parseable JSONL file behind.
func TestCLITraceWrites(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	trc := filepath.Join(dir, "run.jsonl")
	if err := recordio.WriteFile(in, codec.Float64{}, workload.Uniform(4, 2000)); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, "-in", in, "-verify=false", "-trace", trc); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(trc)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a := trace.Analyze(events); a.SortsStarted == 0 || a.SortsCompleted != a.SortsStarted {
		t.Fatalf("trace holds %d sorts, %d completed:\n%.400s", a.SortsStarted, a.SortsCompleted, data)
	}
}

// TestCLISpilledSort is the out-of-core quick-start: a file 8× the
// per-rank budget is sorted with -mem and -spill-dir, never resident,
// and the committed output is byte-identical to the sorted input.
func TestCLISpilledSort(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	out := filepath.Join(dir, "out.f64")
	spill := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 40000 // 320 KB across 4 ranks = 80 KB per rank
	keys := workload.ZipfKeys(9, n, 1.3, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	// An 80 KB shard under a 64 KB budget cannot be sorted resident —
	// the whole pipeline (chunks, staging window, merges) must honour
	// the budget out of core.
	stdout, err := runCLI(t, "-in", in, "-out", out,
		"-nodes", "2", "-cores", "2", "-stable",
		"-mem", "65536", "-spill-dir", spill)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	for _, want := range []string{"spill-sorted 40000 records", "verified: output globally sorted", "wrote " + out} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output missing %q:\n%s", want, stdout)
		}
	}
	// The spilled route shares duplicates of a replicated pivot like the
	// resident one does (1.07 on this file), so its load stays near fair.
	_, after, _ := strings.Cut(stdout, "RDFA: ")
	field, _, _ := strings.Cut(after, "\n")
	if rdfa, err := strconv.ParseFloat(field, 64); err != nil || rdfa > 1.3 {
		t.Fatalf("spilled RDFA %q, want at most 1.3 (err=%v)", field, err)
	}
	got, err := recordio.ReadFile(out, codec.Float64{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("spilled CLI output is not the sorted input")
	}
	// Every spill run was cleaned up on exit.
	ents, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after the run: %v", ents)
	}
}

// TestCLISpilledSortErrors: the spill tier is sds-only and file-backed.
func TestCLISpilledSortErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.f64")
	if err := recordio.WriteFile(in, codec.Float64{}, []float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, "-in", in, "-spill-dir", dir, "-algo", "hyksort"); err == nil {
		t.Fatalf("-spill-dir with hyksort accepted:\n%s", out)
	}
	if out, err := runCLI(t, "-in", in, "-spill-dir", dir, "-type", "csv"); err == nil {
		t.Fatalf("-spill-dir with csv accepted:\n%s", out)
	}
}
