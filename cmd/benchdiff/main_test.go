package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, m, ok := parseBenchLine("BenchmarkExchange/staged-zerocopy-4         \t      12\t  16852918 ns/op\t  37.98 MB/s\t     65536 peak-staging-bytes\n")
	if !ok {
		t.Fatal("did not parse a valid benchmark line")
	}
	if name != "BenchmarkExchange/staged-zerocopy" {
		t.Errorf("name = %q, want proc suffix stripped", name)
	}
	if m["ns/op"] != 16852918 || m["peak-staging-bytes"] != 65536 || m["MB/s"] != 37.98 {
		t.Errorf("metrics = %v", m)
	}
	for _, line := range []string{
		"ok  \tsdssort/internal/core\t3.8s",
		"BenchmarkFoo", // no values
		"=== RUN   TestSort",
		"goos: linux",
		"BenchmarkBar-4 notanumber 5 ns/op",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("parsed non-benchmark line %q", line)
		}
	}
}

// writeBenchFile emits a go test -json file with each benchmark's runs,
// interleaved with the non-bench noise a tee'd CI log carries.
func writeBenchFile(t *testing.T, name string, runs map[string][]string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.Encode(testEvent{Action: "start", Package: "sdssort/internal/core"})
	f.WriteString("not json at all\n")
	for bench, lines := range runs {
		_ = bench
		for _, l := range lines {
			enc.Encode(testEvent{Action: "output", Package: "sdssort/internal/core", Output: l + "\n"})
		}
	}
	enc.Encode(testEvent{Action: "output", Package: "sdssort/internal/core", Output: "PASS\n"})
	return path
}

// TestLoadJoinsSplitResults: a result whose name and numbers arrive as
// two output events must count like one that arrived whole.
func TestLoadJoinsSplitResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "split.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for _, out := range []string{
		"BenchmarkLocalSortStableKeys/radix-4 \t", "     160\t   7000 ns/op\t 278.66 MB/s\n",
		"BenchmarkLocalSortStableKeys/radix-4 \t     158\t   9000 ns/op\t 267.82 MB/s\n",
		"BenchmarkLocalSortStableKeys/radix-4 \t", "     153\t   8000 ns/op\t 258.08 MB/s\n",
	} {
		enc.Encode(testEvent{Action: "output", Package: "sdssort/internal/core", Output: out})
	}
	f.Close()
	res, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := res["sdssort/internal/core.BenchmarkLocalSortStableKeys/radix"]["ns/op"]; got != 8000 {
		t.Errorf("ns/op = %v over one whole and two split results, want the median 8000 (%v)", got, res)
	}
}

func TestLoadTakesMedianAcrossCounts(t *testing.T) {
	path := writeBenchFile(t, "b.json", map[string][]string{
		"exchange": {
			// One outlier-fast run must not set the aggregate — the
			// median (1800) absorbs it where a minimum would not.
			"BenchmarkExchange-4 10 2000 ns/op 64 peak-staging-bytes",
			"BenchmarkExchange-4 10 1100 ns/op 64 peak-staging-bytes",
			"BenchmarkExchange-4 10 1800 ns/op 64 peak-staging-bytes",
		},
	})
	res, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	m := res["sdssort/internal/core.BenchmarkExchange"]
	if m == nil {
		t.Fatalf("benchmark missing from %v", res)
	}
	if m["ns/op"] != 1800 {
		t.Errorf("ns/op = %v, want the median 1800", m["ns/op"])
	}
	if m["peak-staging-bytes"] != 64 {
		t.Errorf("peak-staging-bytes = %v, want 64", m["peak-staging-bytes"])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one = %v", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Errorf("median of two = %v", got)
	}
	if got := median([]float64{9, 1, 5, 7, 3}); got != 5 {
		t.Errorf("median of five = %v", got)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldR := results{
		"p.BenchmarkA": {"ns/op": 1000, "peak-staging-bytes": 100},
		"p.BenchmarkB": {"ns/op": 1000},
		"p.BenchmarkC": {"ns/op": 1000}, // missing from new: ignored
	}
	newR := results{
		"p.BenchmarkA": {"ns/op": 1300, "peak-staging-bytes": 100}, // +30%: regression
		"p.BenchmarkB": {"ns/op": 1100},                            // +10%: within threshold
		"p.BenchmarkD": {"ns/op": 5},                               // new bench: ignored
	}
	rows, matched := compare(oldR, newR, []string{"ns/op", "peak-staging-bytes"}, nil, 15)
	if matched != 2 {
		t.Fatalf("matched %d benchmarks, want 2", matched)
	}
	regressed := map[string]bool{}
	for _, r := range rows {
		if r.regressed {
			regressed[r.bench+" "+r.metric] = true
		}
	}
	if len(regressed) != 1 || !regressed["p.BenchmarkA ns/op"] {
		t.Errorf("regressions = %v, want exactly BenchmarkA ns/op", regressed)
	}

	// Tightening the threshold catches B too.
	rows, _ = compare(oldR, newR, []string{"ns/op"}, nil, 5)
	n := 0
	for _, r := range rows {
		if r.regressed {
			n++
		}
	}
	if n != 2 {
		t.Errorf("at 5%% threshold got %d regressions, want 2", n)
	}

	// The -only filter narrows the comparison.
	_, matched = compare(oldR, newR, []string{"ns/op"}, regexp.MustCompile("BenchmarkB$"), 15)
	if matched != 1 {
		t.Errorf("with -only BenchmarkB matched %d, want 1", matched)
	}

	// Disjoint files: nothing to compare.
	_, matched = compare(oldR, results{"q.BenchmarkZ": {"ns/op": 1}}, []string{"ns/op"}, nil, 15)
	if matched != 0 {
		t.Errorf("disjoint files matched %d benchmarks", matched)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	oldR := results{"p.BenchmarkA": {"peak-staging-bytes": 0}}
	newR := results{"p.BenchmarkA": {"peak-staging-bytes": 4096}}
	rows, _ := compare(oldR, newR, []string{"peak-staging-bytes"}, nil, 15)
	if len(rows) != 1 || !rows[0].regressed {
		t.Fatalf("zero-to-nonzero must regress, got %+v", rows)
	}
	// Zero to zero is fine.
	rows, _ = compare(oldR, results{"p.BenchmarkA": {"peak-staging-bytes": 0}}, []string{"peak-staging-bytes"}, nil, 15)
	if rows[0].regressed {
		t.Fatal("zero-to-zero flagged as regression")
	}
}
