package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// jsonl renders events one JSON object per line, as the JSONL sink
// writes them.
func jsonl(tb testing.TB, events []Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReadJSONL feeds arbitrary bytes to the trace reader, which parses
// trace files off disk and /debug/trace replies. Every stream it
// accepts must survive each read-side analysis without panicking, and
// must round-trip: re-marshalled and read back, the events are equal.
func FuzzReadJSONL(f *testing.F) {
	golden := goldenEvents()
	f.Add(jsonl(f, golden))
	f.Add(jsonl(f, golden[:len(golden)-3])) // the last rank's spans never end
	f.Add(jsonl(f, golden[3:]))             // rank 0's sort ends without a begin
	f.Add([]byte(`{"kind":"span.end","detail":{"span":1,"name":"sort"}}` + "\n" +
		`{"kind":"span.begin","elapsed_us":-5,"detail":{"span":1,"parent":1,"name":"sort"}}` + "\n"))
	f.Add([]byte(`{"rank":-1,"kind":"span.begin","unix_us":9,"detail":{"span":1e300,"parent":"x"}}` + "\n\n" +
		`{"rank":-1,"kind":"clock.offset","detail":{"offset_us":-1e19}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		Analyze(events).Render()
		BuildSpans(events)
		if cp, ok := CriticalPath(events); ok {
			cp.Render()
		}
		if _, err := ChromeTrace(events); err != nil {
			t.Fatalf("ChromeTrace refused a stream ReadJSONL accepted: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(jsonl(t, events)))
		if err != nil {
			t.Fatalf("re-reading re-marshalled events: %v", err)
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("round trip changed the events:\nread  %#v\nback  %#v", events, back)
		}
	})
}

func TestReadJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	root0 := StartSpan(j, 0, Scope{}, "sort", map[string]any{"records": 100})
	piv := StartSpan(j, 0, root0.Scope(), "pivots", nil)
	piv.End(map[string]any{"pivots": 1, "dup_runs": 1, "duplicated_pivots": 2})
	ex0 := StartSpan(j, 0, root0.Scope(), "exchange", nil)
	ex0.End(map[string]any{"recv_records": int64(40)})
	root1 := StartSpan(j, 1, Scope{}, "sort", map[string]any{"records": 100})
	ex1 := StartSpan(j, 1, root1.Scope(), "spill", nil)
	ex1.End(map[string]any{"recv_records": int64(60)})
	root1.End(map[string]any{"records": 60, "reason": "spilled"})
	root0.End(map[string]any{"records": 40, "reason": "completed"})

	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("%d events", len(events))
	}
	a := Analyze(events)
	if a.Events != 10 || len(a.Ranks) != 2 {
		t.Fatalf("analysis: %+v", a)
	}
	if a.Kinds[KindSpanBegin] != 5 || a.Kinds[KindSpanEnd] != 5 {
		t.Fatalf("kinds: %+v", a.Kinds)
	}
	if a.ExchangeRecv[0] != 40 || a.ExchangeRecv[1] != 60 {
		t.Fatalf("recv volumes: %+v", a.ExchangeRecv)
	}
	if a.DuplicatedPivotRuns != 1 {
		t.Fatalf("dup runs: %d", a.DuplicatedPivotRuns)
	}
	if a.SortsStarted != 2 || a.SortsCompleted != 2 || len(a.UnterminatedRanks) != 0 {
		t.Fatalf("sorts: %+v", a)
	}
	if a.DoneReasons["completed"] != 1 || a.DoneReasons["spilled"] != 1 {
		t.Fatalf("done reasons: %v", a.DoneReasons)
	}

	out := a.Render()
	for _, want := range []string{"10 events", KindSpanBegin, "100 records total", "skew-aware", "sorts: 2 started, 2 completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeUnterminatedSorts: a sort whose root span closed as failed,
// or never closed, is started but not completed, and names its rank.
func TestAnalyzeUnterminatedSorts(t *testing.T) {
	rec := NewRing(16)
	StartSpan(rec, 0, Scope{}, "sort", nil).End(map[string]any{"reason": "completed"})
	failed := StartSpan(rec, 1, Scope{}, "sort", nil)
	ex := StartSpan(rec, 1, failed.Scope(), "exchange", nil)
	ex.End(map[string]any{"reason": "error"})
	failed.End(map[string]any{"reason": "error"})
	StartSpan(rec, 2, Scope{}, "sort", nil) // still running

	a := Analyze(rec.Events())
	if a.SortsStarted != 3 || a.SortsCompleted != 1 {
		t.Fatalf("%d started, %d completed, want 3 and 1", a.SortsStarted, a.SortsCompleted)
	}
	if len(a.UnterminatedRanks) != 2 || a.UnterminatedRanks[0] != 1 || a.UnterminatedRanks[1] != 2 {
		t.Fatalf("unterminated ranks %v, want [1 2]", a.UnterminatedRanks)
	}
	if len(a.DoneReasons) != 1 || len(a.ExchangeRecv) != 0 {
		t.Fatalf("a failed sort counted as done: %v / %v", a.DoneReasons, a.ExchangeRecv)
	}
	if !strings.Contains(a.Render(), "UNTERMINATED on ranks [1 2]") {
		t.Fatalf("render:\n%s", a.Render())
	}
}

func TestReadJSONLSkipsBlankAndRejectsGarbage(t *testing.T) {
	events, err := ReadJSONL(strings.NewReader("\n\n{\"seq\":1,\"rank\":0,\"kind\":\"x\"}\n\n"))
	if err != nil || len(events) != 1 {
		t.Fatalf("events=%v err=%v", events, err)
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Events != 0 || a.SpanUS != 0 {
		t.Fatalf("%+v", a)
	}
	if !strings.Contains(a.Render(), "0 events") {
		t.Fatal("render")
	}
}

func TestAsInt64(t *testing.T) {
	for _, v := range []any{int64(5), int(5), float64(5)} {
		if got, ok := asInt64(v); !ok || got != 5 {
			t.Fatalf("asInt64(%T) = %d, %v", v, got, ok)
		}
	}
	if _, ok := asInt64("5"); ok {
		t.Fatal("string accepted")
	}
}
