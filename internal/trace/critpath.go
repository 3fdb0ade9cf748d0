package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Critical-path analysis: attribute a job's end-to-end latency to the
// slowest rank of each phase. A BSP sort advances at the pace of its
// slowest participant — every collective is a barrier — so the wall
// time of the whole run decomposes, phase by phase, into "who was
// last out of the room". That attribution is what the analyzer
// prints: for each phase span, the maximum per-rank time, which rank
// owned it, its share of the total, and the phase's max/mean skew.
// Durations come from each rank's own monotonic clock, so no clock
// alignment is needed (or used) here.

// CritStep is one phase on the critical path.
type CritStep struct {
	// Name is the phase span's name (localsort, exchange, ...).
	Name string
	// Rank held the phase longest; DurUS is its time in the phase.
	Rank  int
	DurUS int64
	// MaxOverMean is the phase's load-imbalance factor across ranks
	// in time: max rank duration over mean rank duration (1.0 =
	// perfectly balanced). Zero when only one rank ran the phase.
	MaxOverMean float64
	// Ranks is how many ranks ran the phase.
	Ranks int
	// PctOfTotal is DurUS as a share of the root span.
	PctOfTotal float64
	// startUS orders the steps for presentation.
	startUS int64
}

// CritPath is the full attribution.
type CritPath struct {
	// Trace identifies the analyzed job when the stream held several.
	Trace string
	// RootName is the root span's name, Roots how many ranks ran it.
	RootName string
	Roots    int
	// TotalUS is the slowest rank's end-to-end time, SlowestRank who.
	TotalUS     int64
	SlowestRank int
	// Steps are the phases, in start order.
	Steps []CritStep
	// AccountedUS sums the steps; the remainder is un-spanned time
	// (setup, barriers between phases, teardown).
	AccountedUS int64
	// OtherTraces counts jobs in the stream that were not analyzed.
	OtherTraces int
}

// CriticalPath analyzes the spans of an event stream. It picks the
// root spans — name "sort" when present, else any parentless span —
// and when the stream holds several traces (a multi-job run),
// analyzes the one with the longest root, reporting how many others
// it skipped. Returns ok=false when the stream has no spans.
func CriticalPath(events []Event) (CritPath, bool) {
	spans := BuildSpans(events)
	if len(spans) == 0 {
		return CritPath{}, false
	}

	// Root selection: prefer the canonical per-rank "sort" roots over
	// job/epoch wrappers so the phase decomposition is the sort's.
	isRoot := func(s SpanRecord) bool { return s.Name == "sort" }
	if !slices.ContainsFunc(spans, isRoot) {
		isRoot = func(s SpanRecord) bool { return s.Parent == 0 }
	}

	// Group roots by trace; analyze the trace owning the longest root.
	var (
		pickTrace string
		pickDur   int64
		traces    = map[string]bool{}
		found     bool
	)
	for _, s := range spans {
		if !isRoot(s) {
			continue
		}
		traces[s.Trace] = true
		if d := s.DurUS(); !found || d > pickDur {
			found, pickDur, pickTrace = true, d, s.Trace
		}
	}
	if !found {
		return CritPath{}, false
	}

	cp := CritPath{Trace: pickTrace, OtherTraces: len(traces) - 1}
	// Span IDs are process-unique only, so parent links are resolved
	// on the (rank, id) pair, same as BuildSpans.
	type rootKey struct {
		rank int
		id   int64
	}
	rootSet := map[rootKey]bool{}
	for _, s := range spans {
		if !isRoot(s) || s.Trace != pickTrace {
			continue
		}
		cp.Roots++
		cp.RootName = s.Name
		rootSet[rootKey{s.Rank, s.Span}] = true
		if d := s.DurUS(); d >= cp.TotalUS {
			cp.TotalUS, cp.SlowestRank = d, s.Rank
		}
	}

	// Depth-1 children of the roots, grouped by name. Per rank the
	// durations sum (a rank may checkpoint twice); across ranks the
	// max wins and is the phase's critical-path contribution.
	type agg struct {
		perRank map[int]int64
		startUS int64
		n       int
	}
	phases := map[string]*agg{}
	for _, s := range spans {
		if !rootSet[rootKey{s.Rank, s.Parent}] {
			continue
		}
		a := phases[s.Name]
		if a == nil {
			a = &agg{perRank: map[int]int64{}, startUS: s.StartUS}
			phases[s.Name] = a
		}
		a.perRank[s.Rank] += s.DurUS()
		if s.StartUS < a.startUS {
			a.startUS = s.StartUS
		}
		a.n++
	}
	for name, a := range phases {
		step := CritStep{Name: name, Ranks: len(a.perRank), startUS: a.startUS}
		var sum int64
		first := true
		for r, d := range a.perRank {
			sum += d
			if first || d > step.DurUS || (d == step.DurUS && r < step.Rank) {
				step.DurUS, step.Rank = d, r
				first = false
			}
		}
		if mean := float64(sum) / float64(len(a.perRank)); mean > 0 && len(a.perRank) > 1 {
			step.MaxOverMean = float64(step.DurUS) / mean
		}
		if cp.TotalUS > 0 {
			step.PctOfTotal = 100 * float64(step.DurUS) / float64(cp.TotalUS)
		}
		cp.AccountedUS += step.DurUS
		cp.Steps = append(cp.Steps, step)
	}
	sort.Slice(cp.Steps, func(i, j int) bool {
		if cp.Steps[i].startUS != cp.Steps[j].startUS {
			return cp.Steps[i].startUS < cp.Steps[j].startUS
		}
		return cp.Steps[i].Name < cp.Steps[j].Name
	})
	return cp, true
}

// Render prints the attribution as an aligned report.
func (c CritPath) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %s over %d rank(s), %.3fms end-to-end (gated by rank %d)",
		c.RootName, c.Roots, float64(c.TotalUS)/1000, c.SlowestRank)
	if c.Trace != "" {
		fmt.Fprintf(&b, " [trace %s]", c.Trace)
	}
	b.WriteByte('\n')
	for _, s := range c.Steps {
		fmt.Fprintf(&b, "  %-14s %10.3fms  %5.1f%%  slowest rank %d of %d",
			s.Name, float64(s.DurUS)/1000, s.PctOfTotal, s.Rank, s.Ranks)
		if s.MaxOverMean > 0 {
			fmt.Fprintf(&b, "  (max/mean %.2fx)", s.MaxOverMean)
		}
		b.WriteByte('\n')
	}
	if slack := c.TotalUS - c.AccountedUS; len(c.Steps) > 0 {
		fmt.Fprintf(&b, "  %-14s %10.3fms  %5.1f%%  (setup, barriers, teardown)\n",
			"un-spanned", float64(slack)/1000,
			100*float64(slack)/float64(max(c.TotalUS, 1)))
	}
	if c.OtherTraces > 0 {
		fmt.Fprintf(&b, "  (%d other trace(s) in the stream not analyzed)\n", c.OtherTraces)
	}
	return b.String()
}
