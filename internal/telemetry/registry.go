// Package telemetry is the live observability plane of one process: a
// dependency-free metrics registry rendering the Prometheus text
// exposition format, and an HTTP server exposing /metrics, /healthz,
// /debug/pprof, /debug/trace and /debug/spans for that process alone.
// A multi-rank world is watched by scraping every rank; the scraper
// sums across targets.
//
// The registry deliberately reimplements the small slice of the
// Prometheus client library this repository needs — counters and
// gauges read from a function at scrape time, and fixed-bucket
// histograms — so the transport and sort layers stay free of external
// dependencies. The package imports nothing internal: subsystems
// register into it, never the other way. Everything is safe for
// concurrent use; a histogram observation is a few atomics.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String returns the TYPE-line spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Label is one name/value pair attached to a series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	bounds []float64      // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Int64 // one per bound, plus the +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefaultLatencyBuckets are upper bounds in seconds suiting the sort
// and scrape latencies this repository measures (1ms .. 30s).
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// series is one labelled instrument of a family.
type series struct {
	labels []Label // sorted by key
	sig    string
	read   func() []point // produces the series' sample lines
}

// point is one output line of a series.
type point struct {
	suffix string
	extra  []Label // appended after the series labels (the "le" bound)
	value  float64
}

type family struct {
	name, help string
	kind       Kind
	series     map[string]*series
	order      []string
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Register instruments up front (registration
// panics on a conflicting re-registration — a programming error), then
// scrape with WriteTo.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameRe = func(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func signature(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

// register adds a series, creating the family on first use.
func (r *Registry) register(name, help string, kind Kind, labels []Label, read func() []point) {
	if !nameRe(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	ls := sortLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	sig := signature(ls)
	if _, dup := f.series[sig]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %q%v", name, ls))
	}
	f.series[sig] = &series{labels: ls, sig: sig, read: read}
	f.order = append(f.order, sig)
	sort.Strings(f.order)
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — the hook subsystems with their own atomic counters (transport
// stats, engine job counts) are exported through without coupling them
// to this package.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindCounter, labels, func() []point {
		return []point{{value: fn()}}
	})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindGauge, labels, func() []point {
		return []point{{value: fn()}}
	})
}

// Histogram registers and returns a histogram with the given upper
// bounds (sorted ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	r.register(name, help, KindHistogram, labels, func() []point {
		pts := make([]point, 0, len(bs)+3)
		var cum int64
		for i, b := range bs {
			cum += h.counts[i].Load()
			pts = append(pts, point{suffix: "_bucket", extra: []Label{{"le", formatFloat(b)}}, value: float64(cum)})
		}
		cum += h.counts[len(bs)].Load()
		pts = append(pts, point{suffix: "_bucket", extra: []Label{{"le", "+Inf"}}, value: float64(cum)})
		pts = append(pts, point{suffix: "_sum", value: h.Sum()})
		pts = append(pts, point{suffix: "_count", value: float64(h.Count())})
		return pts
	})
	return h
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// signature, label keys sorted within a series (a histogram's "le"
// bound stays last, per convention).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cw := &countingWriter{w: w}
	for _, name := range r.names {
		f := r.families[name]
		if err := writeFamilyHeader(cw, f.name, f.help, f.kind); err != nil {
			return cw.n, err
		}
		for _, sig := range f.order {
			s := f.series[sig]
			for _, p := range s.read() {
				if err := writeSampleLine(cw, f.name+p.suffix, append(append([]Label(nil), s.labels...), p.extra...), p.value); err != nil {
					return cw.n, err
				}
			}
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeFamilyHeader(w io.Writer, name, help string, kind Kind) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

// writeSampleLine renders one series line. Labels are assumed
// pre-sorted except that a trailing "le" (histogram bound) is kept in
// place.
func writeSampleLine(w io.Writer, name string, labels []Label, value float64) error {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
