package telemetry

import (
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("sds_test_frames_total", "Frames handled.", func() float64 { return 4 }, L("dir", "in"))
	r.GaugeFunc("sds_test_depth", "Queue depth.", func() float64 { return 3 })

	out := render(t, r)
	for _, want := range []string{
		"# HELP sds_test_frames_total Frames handled.\n",
		"# TYPE sds_test_frames_total counter\n",
		`sds_test_frames_total{dir="in"} 4` + "\n",
		"# TYPE sds_test_depth gauge\n",
		"sds_test_depth 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Families render sorted by name: depth before frames_total.
	if strings.Index(out, "sds_test_depth") > strings.Index(out, "sds_test_frames_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestLabelSortingAndEscaping(t *testing.T) {
	r := NewRegistry()
	// Registered unsorted; must render with keys sorted.
	r.CounterFunc("sds_test_esc_total", `Backslash \ and`+"\nnewline.", func() float64 { return 1 },
		L("zeta", `quote " here`), L("alpha", "line\nbreak"), L("mid", `back\slash`))

	out := render(t, r)
	if want := `# HELP sds_test_esc_total Backslash \\ and\nnewline.` + "\n"; !strings.Contains(out, want) {
		t.Errorf("help not escaped, missing %q in:\n%s", want, out)
	}
	want := `sds_test_esc_total{alpha="line\nbreak",mid="back\\slash",zeta="quote \" here"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Errorf("series line wrong, missing %q in:\n%s", want, out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sds_test_latency_seconds", "Latencies.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("Sum = %v, want 56.05", got)
	}

	out := render(t, r)
	wantLines := []string{
		"# TYPE sds_test_latency_seconds histogram",
		`sds_test_latency_seconds_bucket{le="0.1"} 1`,
		`sds_test_latency_seconds_bucket{le="1"} 3`,
		`sds_test_latency_seconds_bucket{le="10"} 4`,
		`sds_test_latency_seconds_bucket{le="+Inf"} 5`,
		"sds_test_latency_seconds_sum 56.05",
		"sds_test_latency_seconds_count 5",
	}
	pos := -1
	for _, want := range wantLines {
		i := strings.Index(out, want+"\n")
		if i < 0 {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
		if i < pos {
			t.Fatalf("%q out of order (buckets must be cumulative, +Inf last):\n%s", want, out)
		}
		pos = i
	}
}

func TestBoundaryObservationsAreInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sds_test_edge_seconds", "", []float64{1, 2})
	h.Observe(1) // le="1" is an inclusive upper bound
	h.Observe(2)
	out := render(t, r)
	for _, want := range []string{
		`sds_test_edge_seconds_bucket{le="1"} 1`,
		`sds_test_edge_seconds_bucket{le="2"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func() float64 { return 0 }
	r.CounterFunc("sds_test_total", "", zero, L("a", "1"))
	mustPanic("duplicate series", func() { r.CounterFunc("sds_test_total", "", zero, L("a", "1")) })
	mustPanic("kind mismatch", func() { r.GaugeFunc("sds_test_total", "", zero, L("a", "2")) })
	mustPanic("invalid name", func() { r.CounterFunc("0bad-name", "", zero) })
	// Same family, distinct labels: fine.
	r.CounterFunc("sds_test_total", "", zero, L("a", "2"))
}

func TestFormatFloatEdges(t *testing.T) {
	cases := map[float64]string{
		0:    "0",
		2.5:  "2.5",
		-1:   "-1",
		1e21: "1e+21",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
