// Command benchdiff compares two benchmark result files produced by
// `go test -json -bench ...` and fails when the new run regresses the
// old one beyond a threshold. It is the CI perf ratchet: the bench lane
// tees its JSON to a file, benchdiff diffs the PR's run against the
// baseline from main, and a hot-path regression turns the lane red
// instead of scrolling by in a log.
//
// Metrics are compared lower-is-better (ns/op, peak-staging-bytes,
// B/op, allocs/op — throughput metrics like MB/s are intentionally not
// in the default set). Runs repeated with -count=N are collapsed to the
// per-metric median, as benchstat does: unlike the minimum, the median
// of either side cannot be set by one outlier run, which is what keeps
// a lucky baseline from permanently failing honest candidates on a
// noisy runner.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"sdssort/internal/buildinfo"
)

// testEvent is the subset of the go test -json event stream benchdiff
// needs. Benchmark results ride Action "output" lines.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// samples maps "package.benchmark name → metric unit → values observed
// across repeated runs"; results is its per-metric median collapse.
type samples map[string]map[string][]float64

type results map[string]map[string]float64

// procSuffix strips the trailing -N GOMAXPROCS marker go test appends
// to benchmark names, so runs from machines with different (but pinned)
// core counts still line up.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one benchmark result line ("BenchmarkX-4  12
// 16852918 ns/op  37.98 MB/s ..."), returning the normalised name and
// its metric values, or ok=false for any other line.
func parseBenchLine(line string) (name string, metrics map[string]float64, ok bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "Benchmark") {
		return "", nil, false
	}
	fields := strings.Fields(line)
	// name, iteration count, then value/unit pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", nil, false
	}
	metrics = make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	return procSuffix.ReplaceAllString(fields[0], ""), metrics, true
}

// load reads a go test -json file and collapses repeated runs of each
// benchmark to their per-metric median. Lines that are not JSON events
// or not benchmark results are skipped: a tee'd file may carry stray
// build output, and skipping is what makes that harmless. test2json
// often emits a result in two events — the name when the benchmark
// starts, the numbers when it ends — so a package's output is joined up
// to its newline before it is parsed.
func load(path string) (results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	all, partial := make(samples), map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		if ev.Action != "output" {
			continue
		}
		line := partial[ev.Package] + ev.Output
		if !strings.HasSuffix(line, "\n") {
			partial[ev.Package] = line
			continue
		}
		delete(partial, ev.Package)
		name, metrics, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		key := ev.Package + "." + name
		runs := all[key]
		if runs == nil {
			runs = make(map[string][]float64)
			all[key] = runs
		}
		for unit, v := range metrics {
			runs[unit] = append(runs[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	res := make(results, len(all))
	for key, runs := range all {
		med := make(map[string]float64, len(runs))
		for unit, vs := range runs {
			med[unit] = median(vs)
		}
		res[key] = med
	}
	return res, nil
}

// median returns the middle value of vs (mean of the middle two for
// even counts). vs is never empty when called.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// row is one comparison line of the report.
type row struct {
	bench, metric string
	oldV, newV    float64
	deltaPct      float64
	regressed     bool
}

func compare(oldR, newR results, metrics []string, only *regexp.Regexp, threshold float64) ([]row, int) {
	var rows []row
	matched := 0
	keys := make([]string, 0, len(oldR))
	for k := range oldR {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if only != nil && !only.MatchString(k) {
			continue
		}
		newM, ok := newR[k]
		if !ok {
			continue
		}
		matched++
		for _, unit := range metrics {
			oldV, okO := oldR[k][unit]
			newV, okN := newM[unit]
			if !okO || !okN {
				continue
			}
			var pct float64
			switch {
			case oldV != 0:
				pct = (newV - oldV) / oldV * 100
			case newV != 0:
				pct = 100 // from zero to nonzero: treat as a full regression
			}
			rows = append(rows, row{
				bench: k, metric: unit,
				oldV: oldV, newV: newV, deltaPct: pct,
				regressed: pct > threshold,
			})
		}
	}
	return rows, matched
}

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline go test -json bench file")
		newPath   = flag.String("new", "", "candidate go test -json bench file")
		threshold = flag.Float64("threshold", 15, "max allowed regression in percent")
		metricsF  = flag.String("metrics", "ns/op,peak-staging-bytes", "comma-separated lower-is-better metrics to compare")
		onlyF     = flag.String("only", "", "regexp restricting which benchmarks are compared")
		ver       = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *ver {
		fmt.Println(buildinfo.String("benchdiff"))
		return
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(2)
	}
	var only *regexp.Regexp
	if *onlyF != "" {
		var err error
		if only, err = regexp.Compile(*onlyF); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: bad -only regexp: %v\n", err)
			os.Exit(2)
		}
	}
	oldR, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newR, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	metrics := strings.Split(*metricsF, ",")
	rows, matched := compare(oldR, newR, metrics, only, *threshold)
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmark appears in both %s (%d benches) and %s (%d benches)\n",
			*oldPath, len(oldR), *newPath, len(newR))
		os.Exit(2)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-64s %-20s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	regressions := 0
	for _, r := range rows {
		flagStr := ""
		if r.regressed {
			flagStr = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-64s %-20s %14.1f %14.1f %+8.1f%%%s\n",
			r.bench, r.metric, r.oldV, r.newV, r.deltaPct, flagStr)
	}
	fmt.Fprintf(w, "\n%d benchmarks compared, %d regression(s) above %.0f%%\n", matched, regressions, *threshold)
	if regressions > 0 {
		w.Flush()
		os.Exit(1)
	}
}
