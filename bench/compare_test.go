package main

import (
	"bytes"
	"strings"
	"testing"
)

func bound(b float64) *float64 { return &b }

func TestJudge(t *testing.T) {
	higher := manifestMetric{Name: "sort_mbps", Better: "higher", Bound: bound(0.10)}
	lower := manifestMetric{Name: "cpu_s_per_gb", Better: "lower", Bound: bound(0.10)}
	layer := manifestMetric{Name: "core.exchange_s", Better: "lower"}
	tight := func(v float64) metric { return metric{Value: v, N: 10, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) metric { return metric{Value: v, N: 10, Q1: v * 0.9, Q3: v * 1.1} }

	cases := []struct {
		name string
		mm   manifestMetric
		a, b metric
		want string
	}{
		{"higher is better, fell past the bound", higher, tight(100), tight(85), regressed},
		{"higher is better, fell within the bound", higher, tight(100), tight(95), same},
		{"higher is better, rose past the bound", higher, tight(100), tight(120), improved},
		{"lower is better, rose past the bound", lower, tight(10), tight(11.5), regressed},
		{"lower is better, rose within the bound", lower, tight(10), tight(10.5), same},
		{"lower is better, fell past the bound", lower, tight(10), tight(8), improved},
		{"exactly on the bound is not past it", lower, tight(10), tight(11), same},
		{"a's own spread wider than the bound", higher, wide(100), tight(85), unresolved},
		{"b's own spread wider than the bound", higher, tight(100), wide(85), unresolved},
		{"per-layer metrics carry no verdict", layer, tight(1), tight(5), unbounded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, got := judge(tc.mm, tc.a, tc.b); got != tc.want {
				t.Fatalf("got %s, want %s", got, tc.want)
			}
		})
	}

	if worse, _ := judge(higher, tight(100), tight(85)); worse < 0.149 || worse > 0.151 {
		t.Fatalf("worse-by of a 15%% fall reads %v", worse)
	}
}

func TestCompare(t *testing.T) {
	m := &manifest{
		EndToEnd: []manifestMetric{{Name: "sort_mbps", Unit: "MB/s", Better: "higher", Bound: bound(0.10)}},
		PerLayer: []manifestMetric{{Name: "core.exchange_s", Unit: "s", Better: "lower"}},
	}
	result := func(workload string, mbps float64, attempted, failed int) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{workload: {
			Correct: failed == 0, Attempted: attempted, Failed: failed,
			Metrics: map[string]metric{
				"sort_mbps":       {Value: mbps, Unit: "MB/s", N: 10, Q1: mbps, Q3: mbps},
				"core.exchange_s": {Value: 1, Unit: "s", N: 3, Q1: 1, Q3: 1},
			},
		}}}
	}

	cases := []struct {
		name    string
		a, b    *resultFile
		wantBad bool
		wantErr bool
		wantRow string
	}{
		{"unchanged", result("w", 100, 10, 0), result("w", 101, 10, 0), false, false, same},
		{"regressed", result("w", 100, 10, 0), result("w", 80, 10, 0), true, false, regressed},
		{"more failures regress whatever the speed", result("w", 100, 10, 0), result("w", 100, 10, 1), true, false, "fail_ratio"},
		{"fewer failures do not", result("w", 100, 10, 2), result("w", 100, 10, 1), false, false, same},
		{"disjoint workloads", result("w", 100, 10, 0), result("x", 100, 10, 0), false, true, onlyA},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			bad, err := compare(&out, m, tc.a, tc.b)
			if (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want error %v", err, tc.wantErr)
			}
			if bad != tc.wantBad {
				t.Fatalf("regressed %v, want %v\n%s", bad, tc.wantBad, out.String())
			}
			if !strings.Contains(out.String(), tc.wantRow) {
				t.Fatalf("no %q row in\n%s", tc.wantRow, out.String())
			}
		})
	}

	// A metric only one side has is labelled, and the rest still compared.
	a, b := result("w", 100, 10, 0), result("w", 100, 10, 0)
	delete(b.Workloads["w"].Metrics, "core.exchange_s")
	var out bytes.Buffer
	if bad, err := compare(&out, m, a, b); err != nil || bad {
		t.Fatalf("bad=%v err=%v", bad, err)
	}
	if !strings.Contains(out.String(), onlyA) || !strings.Contains(out.String(), same) {
		t.Fatalf("want an %s row and a %s row in\n%s", onlyA, same, out.String())
	}
}
