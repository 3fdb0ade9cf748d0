// Package metrics provides measurement utilities shared by the SDS-Sort
// library, its baselines, and the experiment harness: phase timers, the
// RDFA load-balance metric from the paper and sorting throughput.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Phase identifies one stage of a parallel sort run. The names match the
// phase breakdown the paper reports in Figures 9 and 10.
type Phase int

const (
	// PhaseLocalSort is the initial local ordering of each rank's raw
	// input (Fig. 1 line 2), before sampling begins. It is distinct from
	// PhaseLocalOrdering, which orders the *received* data after the
	// exchange (lines 16-27).
	PhaseLocalSort Phase = iota
	PhasePivotSelection
	PhaseExchange
	PhaseLocalOrdering
	PhaseOther
	numPhases
)

// String returns the paper's label for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseLocalSort:
		return "Local sort"
	case PhasePivotSelection:
		return "Pivot selection"
	case PhaseExchange:
		return "Exchange"
	case PhaseLocalOrdering:
		return "Local-ordering"
	case PhaseOther:
		return "Other"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Phases lists all phases in reporting order.
func Phases() []Phase {
	return []Phase{PhaseLocalSort, PhasePivotSelection, PhaseExchange, PhaseLocalOrdering, PhaseOther}
}

// PhaseTimer accumulates wall-clock time per phase for one rank.
// It is not safe for concurrent use; each rank owns its own timer.
type PhaseTimer struct {
	acc     [numPhases]time.Duration
	current Phase
	started time.Time
	running bool
	now     func() time.Time
}

// NewPhaseTimer returns a stopped timer.
func NewPhaseTimer() *PhaseTimer {
	return &PhaseTimer{now: time.Now}
}

// Start begins timing phase p, closing any phase already running.
func (t *PhaseTimer) Start(p Phase) {
	n := t.now()
	if t.running {
		t.acc[t.current] += n.Sub(t.started)
	}
	t.current = p
	t.started = n
	t.running = true
}

// Stop closes the running phase, if any.
func (t *PhaseTimer) Stop() {
	if !t.running {
		return
	}
	t.acc[t.current] += t.now().Sub(t.started)
	t.running = false
}

// Add directly accrues d to phase p (used to merge sub-measurements).
func (t *PhaseTimer) Add(p Phase, d time.Duration) {
	t.acc[p] += d
}

// Get returns the accumulated time for phase p, excluding a running span.
func (t *PhaseTimer) Get(p Phase) time.Duration { return t.acc[p] }

// MergeMax folds per-rank timers into a single breakdown taking, for each
// phase, the maximum across ranks. Parallel runtime is gated by the
// slowest rank, so this is the number the paper's stacked bars report.
func MergeMax(timers []*PhaseTimer) map[Phase]time.Duration {
	out := make(map[Phase]time.Duration, numPhases)
	for _, t := range timers {
		for p := Phase(0); p < numPhases; p++ {
			if d := t.Get(p); d > out[p] {
				out[p] = d
			}
		}
	}
	return out
}

// RDFA is the paper's load-balance metric: the Relative Deviation of the
// size of the largest partition From the Average partition size,
// max(m_i) / avg(m_i). A perfectly balanced run has RDFA 1.0. It returns
// +Inf when the run failed (avg is zero or loads is empty), matching the
// paper's convention of reporting ∞ for runs that died of OOM.
func RDFA(loads []int) float64 {
	if len(loads) == 0 {
		return math.Inf(1)
	}
	var sum, maxLoad int
	for _, m := range loads {
		sum += m
		if m > maxLoad {
			maxLoad = m
		}
	}
	if sum == 0 {
		return math.Inf(1)
	}
	avg := float64(sum) / float64(len(loads))
	return float64(maxLoad) / avg
}

// Throughput returns sorting throughput in bytes per second.
func Throughput(totalBytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(totalBytes) / elapsed.Seconds()
}

// FormatThroughput renders a bytes/sec figure in the paper's TB/min units
// when large, falling back to MB/s for laptop-scale runs.
func FormatThroughput(bytesPerSec float64) string {
	const tb = 1 << 40
	perMin := bytesPerSec * 60
	if perMin >= tb {
		return fmt.Sprintf("%.2fTB/min", perMin/tb)
	}
	return fmt.Sprintf("%.1fMB/s", bytesPerSec/(1<<20))
}

// Table renders rows of figures as an aligned text table, the format the
// experiment harness prints for each reproduced paper table/figure.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// WriteCSV renders the table as CSV (header row first), for plotting
// the reproduced series next to the paper's figures.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FmtDur formats a duration with millisecond precision for tables.
func FmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// FmtRDFA formats an RDFA value the way the paper's Table 3 does,
// printing ∞ for failed runs.
func FmtRDFA(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4f", v)
}
