package main

import (
	"encoding/json"
	"regexp"
	"sort"
	"testing"
	"time"
)

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, declared, printed []string) {
	t.Helper()
	sort.Strings(declared)
	sort.Strings(printed)
	have := map[string]bool{}
	for _, n := range printed {
		have[n] = true
	}
	for _, n := range declared {
		if !have[n] {
			t.Errorf("%s: BENCHMARK.json declares %q, the benchmark does not print it", what, n)
		}
		delete(have, n)
	}
	for _, n := range sortedKeys(have) {
		t.Errorf("%s: the benchmark prints %q, BENCHMARK.json does not declare it", what, n)
	}
}

// TestSmoke runs every workload through both passes at smoke size and
// holds the output against BENCHMARK.json, name for name in both
// directions, so that a benchmark that rots fails a test.
func TestSmoke(t *testing.T) {
	start := time.Now()
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	names := func(ms []manifestMetric) []string {
		var out []string
		for _, mm := range ms {
			units[mm.Name] = mm.Unit
			if !name.MatchString(mm.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", mm.Name)
			}
			if mm.Better != "higher" && mm.Better != "lower" {
				t.Errorf("metric %s: better is %q", mm.Name, mm.Better)
			}
			out = append(out, mm.Name)
		}
		return out
	}
	endToEnd, perLayer := names(m.EndToEnd), names(m.PerLayer)
	for _, mm := range m.EndToEnd {
		if mm.Bound == nil || *mm.Bound <= 0 || *mm.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", mm.Name)
		}
	}

	var declared, table []string
	for _, w := range m.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is outside [A-Za-z0-9_.-]", w.Name)
		}
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		table = append(table, w.name)
	}
	sameNames(t, "workloads", declared, table)

	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rf, err := measure(config{workload: w.name, seed: 5, trace: trace, quick: true, outDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := rf.Workloads[w.name]
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want, what := endToEnd, w.name+" --trace 0"
			if trace {
				want, what = perLayer, w.name+" --trace 1"
			}
			sameNames(t, what, append([]string(nil), want...), sortedKeys(res.Metrics))
			for k, v := range res.Metrics {
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, k)
				}
				if unit, ok := units[k]; ok && unit != v.Unit {
					t.Errorf("%s: %s is printed in %q, BENCHMARK.json says %q", what, k, v.Unit, unit)
				}
			}

			// The contract's line: exactly these keys, values and units only.
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  *string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
				t.Errorf("%s: contract line %s", what, res.contractLine())
			}
		}
	}
	if spent := time.Since(start); spent > 15*time.Second {
		t.Errorf("smoke lane took %v, want under 15s", spent)
	}
}
