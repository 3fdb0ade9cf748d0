package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// manifest is BENCHMARK.json: the benchmark's declaration of every
// workload and metric, with the direction each metric improves in and,
// for end-to-end metrics, the share by which it may worsen.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Verdicts of one (workload, metric) pair.
const (
	same       = "same"
	improved   = "improved"
	regressed  = "REGRESSED"
	unresolved = "unresolved" // a side's own spread is wider than the bound
	onlyA      = "only-in-a"
	onlyB      = "only-in-b"
	unbounded  = "-" // per-layer metrics carry no bound
)

// judge compares b against a for one metric. worse is the relative
// change in the metric's bad direction, as a share of a.
func judge(mm manifestMetric, a, b metric) (worse float64, verdict string) {
	worse = (b.Value - a.Value) / math.Abs(a.Value)
	if mm.Better == "higher" {
		worse = -worse
	}
	if mm.Bound == nil {
		return worse, unbounded
	}
	bound := *mm.Bound
	spread := func(m metric) float64 { return (m.Q3 - m.Q1) / math.Abs(m.Value) }
	switch {
	case spread(a) > bound || spread(b) > bound:
		return worse, unresolved
	case worse > bound:
		return worse, regressed
	case worse < -bound:
		return worse, improved
	}
	return worse, same
}

// compare prints one row per workload and metric and reports whether b
// regressed: an end-to-end metric worse than its bound, or more failed
// sorts per sort attempted.
func compare(w io.Writer, m *manifest, a, b *resultFile) (bool, error) {
	names := map[string]bool{}
	for n := range a.Workloads {
		names[n] = true
	}
	for n := range b.Workloads {
		names[n] = true
	}
	order := make([]string, 0, len(names))
	for n := range names {
		order = append(order, n)
	}
	sort.Strings(order)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (q1..q3)\tb (q1..q3)\tworse by\tverdict")
	cell := func(x metric) string { return fmt.Sprintf("%.5g (%.5g..%.5g)", x.Value, x.Q1, x.Q3) }
	bad, compared := false, 0
	for _, wl := range order {
		ra, rb := a.Workloads[wl], b.Workloads[wl]
		if ra == nil || rb == nil {
			v := onlyA
			if ra == nil {
				v = onlyB
			}
			fmt.Fprintf(tw, "%s\t*\t\t\t\t\t%s\n", wl, v)
			continue
		}
		for _, mm := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
			ma, okA := ra.Metrics[mm.Name]
			mb, okB := rb.Metrics[mm.Name]
			switch {
			case !okA && !okB:
			case !okB:
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t\t%s\n", wl, mm.Name, mm.Unit, cell(ma), onlyA)
			case !okA:
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t%s\t\t%s\n", wl, mm.Name, mm.Unit, cell(mb), onlyB)
			default:
				worse, v := judge(mm, ma, mb)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%s\n", wl, mm.Name, mm.Unit, cell(ma), cell(mb), 100*worse, v)
				bad = bad || v == regressed
				compared++
			}
		}
		fa, fb := failRatio(ra), failRatio(rb)
		v := same
		if fb > fa {
			v, bad = regressed, true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%.4g\t%.4g\t\t%s\n", wl, fa, fb, v)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if compared == 0 {
		return false, fmt.Errorf("the two results share no workload and metric")
	}
	return bad, nil
}

func failRatio(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	return compare(w, m, a, b)
}
