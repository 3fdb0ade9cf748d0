package trace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Chrome trace-event export: the JSON object format that
// chrome://tracing and Perfetto (ui.perfetto.dev) load directly. Each
// rank is one timeline row (tid = rank), spans become complete ("X")
// slices — nested by time containment, so phase spans sit inside
// their sort span — and plain events become thread-scoped instants.
//
// Timelines from different processes are aligned onto rank 0's clock:
// every event carries its wall-clock emission time (Event.UnixUS),
// and every rank that ran comm.SyncClocks carries a clock.offset
// event whose offset_us says how far its clock leads rank 0's. The
// exporter subtracts the offset, so simultaneous work lines up even
// when the hosts' clocks disagree. Traces recorded before UnixUS
// existed fall back to local elapsed time (ranks then share a zero
// origin, which is exactly the old, unaligned behaviour).

// KindClockOffset is the event emitted after a clock synchronisation,
// with detail {offset_us, rtt_us}: this rank's clock minus rank 0's.
const KindClockOffset = "clock.offset"

// controlTID is the timeline row for rank −1 (engine/supervisor
// events, which no single rank owns).
const controlTID = 1 << 20

// chromeEvent is one entry of the trace-event array. Field order and
// the sorted map marshaling of args make the output deterministic for
// a given event stream, which the golden test relies on.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// ClockOffsets extracts the per-rank clock offsets (microseconds
// ahead of rank 0) from the stream's clock.offset events. When a rank
// reports more than once — a world re-formed by a shrink re-measures —
// the last report wins, matching the clock the rank's later events
// were stamped by.
func ClockOffsets(events []Event) map[int]int64 {
	offs := map[int]int64{}
	for _, e := range events {
		if e.Kind != KindClockOffset {
			continue
		}
		if v, ok := asInt64(e.Detail["offset_us"]); ok {
			offs[e.Rank] = v
		}
	}
	return offs
}

// ChromeTrace renders events as Chrome trace-event JSON. Events from
// any number of ranks and processes may be mixed; see the package
// comment above for the alignment rules.
func ChromeTrace(events []Event) ([]byte, error) {
	offs := ClockOffsets(events)

	// Use the wall clock only when every event carries it; a mixed
	// stream (old file merged with new) cannot be coherently aligned,
	// so it degrades to elapsed time as a whole.
	useUnix := len(events) > 0
	for _, e := range events {
		if e.UnixUS == 0 {
			useUnix = false
			break
		}
	}
	align := func(e Event) int64 {
		if useUnix {
			return e.UnixUS - offs[e.Rank]
		}
		return e.ElapsedUS
	}

	// Normalise to a zero origin so the viewer opens on the data.
	var origin int64
	for i, e := range events {
		if ts := align(e); i == 0 || ts < origin {
			origin = ts
		}
	}

	tid := func(rank int) int {
		if rank < 0 {
			return controlTID
		}
		return rank
	}

	var out []chromeEvent

	// Thread-name metadata, one per rank row, rank order.
	ranks := map[int]bool{}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	rankList := make([]int, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, r)
	}
	sort.Ints(rankList)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "sdssort"},
	})
	for _, r := range rankList {
		name := fmt.Sprintf("rank %d", r)
		if r < 0 {
			name = "control"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: tid(r),
			Args: map[string]any{"name": name},
		})
		out = append(out, chromeEvent{
			Name: "thread_sort_index", Ph: "M", PID: chromePID, TID: tid(r),
			Args: map[string]any{"sort_index": tid(r)},
		})
	}

	// Spans as complete slices. BuildSpans pairs begin/end on
	// (rank, span id), so merged per-process files with colliding span
	// IDs stay separate. Durations are measured on the rank's own
	// clock (end − start elapsed), which no offset can skew; only the
	// placement uses the aligned wall clock.
	spans := BuildSpans(events)
	spanStartAligned := func(s SpanRecord) int64 {
		if useUnix {
			return s.StartUnixUS - offs[s.Rank] - origin
		}
		return s.StartUS - origin
	}
	for _, s := range spans {
		args := make(map[string]any, len(s.Detail)+3)
		for k, v := range s.Detail {
			args[k] = v
		}
		if s.Trace != "" {
			args["trace"] = s.Trace
		}
		if s.Job != "" {
			args["job"] = s.Job
		}
		if s.Open {
			args["open"] = true
		}
		name := s.Name
		if name == "" {
			name = "span"
		}
		out = append(out, chromeEvent{
			Name: name, Ph: "X",
			TS: spanStartAligned(s), Dur: s.DurUS(),
			PID: chromePID, TID: tid(s.Rank),
			Args: args,
		})
	}

	// Everything that is not a span becomes a thread-scoped instant,
	// so decisions (algo.selected, skew.phase, supervisor.*...)
	// show up as ticks on the rank that made them.
	for _, e := range events {
		if e.Kind == KindSpanBegin || e.Kind == KindSpanEnd {
			continue
		}
		out = append(out, chromeEvent{
			Name: e.Kind, Ph: "i",
			TS:  align(e) - origin,
			S:   "t",
			PID: chromePID, TID: tid(e.Rank),
			Args: e.Detail,
		})
	}

	return json.MarshalIndent(chromeFile{TraceEvents: out, DisplayTimeUnit: "ms"}, "", " ")
}
