package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ReadJSONL parses a stream of events as written by the JSONL sink.
// Blank lines are skipped; a malformed line aborts with its number. An
// empty detail object reads as no detail, as the sink writes it.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows to 1 MiB lines only when it meets one
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if len(e.Detail) == 0 {
			e.Detail = nil
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Analysis summarises an event stream. The event counts are of raw
// events; everything about the sorts is read off their span tree.
type Analysis struct {
	// Events is the total count.
	Events int
	// Kinds maps event kind to count.
	Kinds map[string]int
	// Ranks maps rank to its event count.
	Ranks map[int]int
	// ExchangeRecv maps rank to the records it received, summed over the
	// recv_records of its closed exchange and spill spans.
	ExchangeRecv map[int]int64
	// DuplicatedPivotRuns counts pivots spans that reported duplicated
	// pivots (dup_runs > 0).
	DuplicatedPivotRuns int
	// SortsStarted counts "sort" root spans, SortsCompleted those that
	// closed with a reason other than "error"; a difference means a
	// failed run or a rank that never finished.
	SortsStarted, SortsCompleted int
	// UnterminatedRanks lists ranks with a sort that never completed,
	// sorted ascending.
	UnterminatedRanks []int
	// DoneReasons counts completed sorts by their exit reason
	// ("completed", "follower", "single", "empty", "resume", "spilled").
	DoneReasons map[string]int
	// SpanUS is the elapsed microseconds between the first and last
	// event.
	SpanUS int64
}

// Analyze computes the summary of events.
func Analyze(events []Event) Analysis {
	a := Analysis{
		Kinds:        map[string]int{},
		Ranks:        map[int]int{},
		ExchangeRecv: map[int]int64{},
		DoneReasons:  map[string]int{},
	}
	a.Events = len(events)
	var minT, maxT int64
	for i, e := range events {
		a.Kinds[e.Kind]++
		a.Ranks[e.Rank]++
		if i == 0 || e.ElapsedUS < minT {
			minT = e.ElapsedUS
		}
		if e.ElapsedUS > maxT {
			maxT = e.ElapsedUS
		}
	}
	if len(events) > 0 {
		a.SpanUS = maxT - minT
	}
	balance := map[int]int{} // per-rank sorts started minus completed
	for _, s := range BuildSpans(events) {
		switch s.Name {
		case "sort":
			a.SortsStarted++
			balance[s.Rank]++
			if reason, _ := s.Detail["reason"].(string); !s.Open && reason != "error" {
				a.SortsCompleted++
				balance[s.Rank]--
				if reason != "" {
					a.DoneReasons[reason]++
				}
			}
		case "exchange", "spill":
			if v, ok := asInt64(s.Detail["recv_records"]); ok {
				a.ExchangeRecv[s.Rank] += v
			}
		case "pivots":
			if v, ok := asInt64(s.Detail["dup_runs"]); ok && v > 0 {
				a.DuplicatedPivotRuns++
			}
		}
	}
	for r, b := range balance {
		if b > 0 {
			a.UnterminatedRanks = append(a.UnterminatedRanks, r)
		}
	}
	sort.Ints(a.UnterminatedRanks)
	return a
}

// asInt64 coerces JSON numbers (float64) and native ints alike.
func asInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case float64:
		return int64(x), true
	}
	return 0, false
}

// Render prints the analysis as an aligned report.
func (a Analysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events across %d ranks over %.3fms\n",
		a.Events, len(a.Ranks), float64(a.SpanUS)/1000)
	kinds := make([]string, 0, len(a.Kinds))
	for k := range a.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-22s %d\n", k, a.Kinds[k])
	}
	if len(a.ExchangeRecv) > 0 {
		ranks := make([]int, 0, len(a.ExchangeRecv))
		var total, maxRecv int64
		for r, v := range a.ExchangeRecv {
			ranks = append(ranks, r)
			total += v
			if v > maxRecv {
				maxRecv = v
			}
		}
		sort.Ints(ranks)
		avg := float64(total) / float64(len(ranks))
		fmt.Fprintf(&b, "exchange: %d records total; max rank load %d (%.2fx the average)\n",
			total, maxRecv, float64(maxRecv)/avg)
	}
	if a.DuplicatedPivotRuns > 0 {
		fmt.Fprintf(&b, "duplicated-pivot reports: %d (skew-aware splitting engaged)\n", a.DuplicatedPivotRuns)
	}
	if a.SortsStarted > 0 {
		fmt.Fprintf(&b, "sorts: %d started, %d completed", a.SortsStarted, a.SortsCompleted)
		if len(a.UnterminatedRanks) > 0 {
			fmt.Fprintf(&b, "; UNTERMINATED on ranks %v", a.UnterminatedRanks)
		}
		b.WriteByte('\n')
	}
	if len(a.DoneReasons) > 0 {
		reasons := make([]string, 0, len(a.DoneReasons))
		for r := range a.DoneReasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		b.WriteString("done reasons:")
		for _, r := range reasons {
			fmt.Fprintf(&b, " %s=%d", r, a.DoneReasons[r])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
